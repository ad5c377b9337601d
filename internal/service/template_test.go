package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"trios/internal/benchmarks"
	"trios/internal/compiler"
	"trios/internal/qasm"
	"trios/internal/template"
)

// TestHTTPTemplateServing drives a template-enabled daemon end to end: a
// request whose input is a warmed template is served from the fragment
// (template hit counted), carries the same compiled QASM as a plain compile,
// and the hit shows up in /healthz and /metrics.
func TestHTTPTemplateServing(t *testing.T) {
	opts, err := DefaultCompileOptions()
	if err != nil {
		t.Fatal(err)
	}
	g, err := deviceByName("johannesburg")
	if err != nil {
		t.Fatal(err)
	}
	// Warm only the fragment the request needs: the full default library
	// (exercised by the template package's own tests) would compile every
	// benchmark here.
	bench, err := benchmarks.ByName("cnx_dirty-11")
	if err != nil {
		t.Fatal(err)
	}
	bc, err := bench.Build()
	if err != nil {
		t.Fatal(err)
	}
	one, err := template.New(bench.Name, bc)
	if err != nil {
		t.Fatal(err)
	}
	small := template.NewStore(template.NewLibrary(one))
	if _, err := small.Precompile(t.Context(), g, opts); err != nil {
		t.Fatal(err)
	}

	s := newTestService(t, Config{Workers: 2, Templates: small})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	req := CompileRequest{Benchmark: "cnx_dirty-11"}
	resp := postCompile(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var art Artifact
	if err := json.Unmarshal(body, &art); err != nil {
		t.Fatal(err)
	}
	if st := small.Stats(); st.Hits != 1 {
		t.Fatalf("template stats = %+v, want exactly one hit", st)
	}
	// The served fragment must be the same compiled program a plain
	// template-less compile produces for this request.
	plainRes, err := compiler.Compile(bc, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := qasm.Emit(plainRes.Physical)
	if err != nil {
		t.Fatal(err)
	}
	if art.QASM != plain {
		t.Fatal("templated artifact QASM differs from the plain pipeline compile")
	}
	if !strings.Contains(art.Key, "sha256:") {
		t.Fatalf("artifact key %q not content-addressed", art.Key)
	}

	// The artifact key must differ from a template-less resolution of the
	// same request: the library digest segments the cache.
	spec := mustResolve(t, req)
	if spec.Key == art.Key {
		t.Fatal("templated artifact aliases the template-less key")
	}
	spec.AttachTemplates(small)
	if spec.Key != art.Key {
		t.Fatalf("AttachTemplates key %s does not match served key %s", spec.Key, art.Key)
	}

	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer health.Body.Close()
	var hb healthBody
	if err := json.NewDecoder(health.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	if hb.Templates == nil || hb.Templates.Hits != 1 || hb.Templates.Fragments != 1 || hb.Templates.LibrarySize != 1 {
		t.Fatalf("healthz templates block = %+v", hb.Templates)
	}

	metricsResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metricsResp.Body.Close()
	text, err := io.ReadAll(metricsResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"triosd_template_hits_total 1",
		"triosd_template_stitched_total 0",
		"triosd_template_fragments 1",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
