package compiler

import (
	"context"
	"strings"
	"testing"

	"trios/internal/benchmarks"
	"trios/internal/circuit"
	"trios/internal/topo"
)

// batchTestJobs builds a mixed (benchmark x topology x pipeline x seed)
// grid with shared input circuits, so the front cache is exercised.
func batchTestJobs(t *testing.T) []Job {
	t.Helper()
	var jobs []Job
	for _, name := range []string{"grovers-9", "cuccaro_adder-20", "cnx_logancilla-19"} {
		b, err := benchmarks.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []*topo.Graph{topo.Johannesburg(), topo.Line20()} {
			for _, pipe := range []Pipeline{Conventional, TriosPipeline} {
				for seed := int64(1); seed <= 2; seed++ {
					jobs = append(jobs, Job{
						ID:    name + "/" + g.Name() + "/" + pipe.String(),
						Input: c,
						Graph: g,
						Opts: Options{
							Pipeline:  pipe,
							Router:    RouteStochastic,
							Placement: PlaceIdentity,
							Seed:      seed,
						},
					})
				}
			}
		}
	}
	return jobs
}

// TestBatchWorkersDeterministic asserts -workers=1 and -workers=8 produce
// identical result sets, job for job.
func TestBatchWorkersDeterministic(t *testing.T) {
	jobs := batchTestJobs(t)
	serial, err := (&Batch{Workers: 1}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (&Batch{Workers: 8}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("job %s: errs %v / %v", jobs[i].ID, serial[i].Err, parallel[i].Err)
		}
		sameResult(t, jobs[i].ID, parallel[i].Result, serial[i].Result)
	}
}

// TestBatchMatchesDirectCompile asserts that batched compilation — which
// reuses cached front-pass outputs across jobs — yields exactly what a
// direct Compile call yields for every job.
func TestBatchMatchesDirectCompile(t *testing.T) {
	jobs := batchTestJobs(t)
	rs, err := new(Batch).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if rs[i].Err != nil {
			t.Fatalf("job %s: %v", j.ID, rs[i].Err)
		}
		want, err := Compile(j.Input, j.Graph, j.Opts)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, j.ID, rs[i].Result, want)
		if err := rs[i].Result.Verify(); err != nil {
			t.Fatalf("job %s: %v", j.ID, err)
		}
	}
}

// TestBatchJobError checks a bad job reports its own error without
// poisoning the rest of the batch.
func TestBatchJobError(t *testing.T) {
	b, _ := benchmarks.ByName("grovers-9")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	big := circuit.New(40)
	big.CCX(0, 1, 39)
	jobs := []Job{
		{ID: "ok", Input: c, Graph: topo.Johannesburg(), Opts: Options{Pipeline: TriosPipeline, Seed: 1}},
		{ID: "too-big", Input: big, Graph: topo.Johannesburg(), Opts: Options{Pipeline: TriosPipeline, Seed: 1}},
	}
	rs, err := new(Batch).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Err != nil {
		t.Fatalf("good job failed: %v", rs[0].Err)
	}
	if rs[1].Err == nil || !strings.Contains(rs[1].Err.Error(), "needs 40 qubits") {
		t.Fatalf("oversized job should fail the capacity check, got %v", rs[1].Err)
	}
}

// TestBatchCancellation checks a cancelled context stops the batch and
// marks unreached jobs with the context error.
func TestBatchCancellation(t *testing.T) {
	jobs := batchTestJobs(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rs, err := (&Batch{Workers: 2}).Run(ctx, jobs)
	if err == nil {
		t.Fatal("expected context error")
	}
	for _, jr := range rs {
		if jr.Err == nil && jr.Result == nil {
			t.Fatal("unreached job has neither result nor error")
		}
	}
}
