package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json this test checks the
// program against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestWorkloadsShort runs every workload for a few queries, untraced and
// traced, and checks that each answer was right, that the traced run's
// census matched the cost model, and that every metric BENCHMARK.json
// names is emitted with its unit.
func TestWorkloadsShort(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for _, bw := range bf.Workloads {
		w, ok := lookupWorkload(bw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", bw.Name)
		}
		if bw.Why != w.why {
			t.Errorf("%s: BENCHMARK.json gives why %q, the program %q", w.name, bw.Why, w.why)
		}
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				o := options{workload: w.name, seed: 7, seconds: 1, trace: trace, setups: 1, out: t.TempDir()}
				res, rec, err := bench(context.Background(), w, o, io.Discard)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v failed=%d of %d; errors %v",
						trace, res.Correct, res.Failed, res.Attempted, rec.Errors)
				}
				want := bf.EndToEnd
				if trace {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics emitted, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("trace=%v: metric %s missing", trace, m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("trace=%v: metric %s has unit %q, want %q", trace, m.Name, got.Unit, m.Unit)
					}
				}
			}
		})
	}
}
