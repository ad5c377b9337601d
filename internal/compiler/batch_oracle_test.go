package compiler

import (
	"context"
	"testing"

	"trios/internal/topo"
)

// TestBatchSharedDeviceOracle runs a high-worker batch where every job
// shares one freshly constructed Graph per device — the first compile's
// prepare step builds each device's distance oracle and the workers then
// query it concurrently (exercised under -race via make race) — and asserts
// the results are bit-identical to compiling each job against its own
// private Graph instance, i.e. oracle sharing is invisible to outputs.
func TestBatchSharedDeviceOracle(t *testing.T) {
	jobs := batchTestJobs(t)
	rs, err := (&Batch{Workers: 8}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range rs {
		if jr.Err != nil {
			t.Fatalf("job %s: %v", jobs[i].ID, jr.Err)
		}
		// Private graph: same shape, separate oracle build.
		private, err := topo.ByName(jobs[i].Graph.Name())
		if err != nil {
			t.Fatalf("job %s: %v", jobs[i].ID, err)
		}
		want, err := Compile(jobs[i].Input, private, jobs[i].Opts)
		if err != nil {
			t.Fatalf("job %s: %v", jobs[i].ID, err)
		}
		sameResult(t, jobs[i].ID, jr.Result, want)
	}
}
