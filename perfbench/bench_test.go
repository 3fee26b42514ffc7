package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"sort"
	"testing"
)

// tinySizes run every workload in about a second, reference checks on.
var tinySizes = sizes{
	ingestBatches: 40,
	ingestWarm:    5,
	ingestEvery:   10,

	scanRows:      3000,
	scanRounds:    2,
	scanRotations: 1,
	scanSessions:  1,

	cdcOrders:    2000,
	cdcCustomers: 50,
	cdcRounds:    2,
	cdcEpochs:    3,
	cdcChurn:     200,
}

// spec is the part of BENCHMARK.json the program must agree with.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics fails unless got holds exactly the metrics of want, with
// the same units.
func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	var names []string
	for _, m := range want {
		names = append(names, m.Name)
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		var have []string
		for k := range got {
			have = append(have, k)
		}
		sort.Strings(have)
		t.Errorf("metrics %v, want %v", have, names)
	}
}

func TestWorkloadsTiny(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			o := options{workload: w.Name, seed: 7, size: tinySizes, minReps: 1}
			res, err := run(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("result %+v", res)
			}
			checkMetrics(t, res.Metrics, s.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}

			o.trace = true
			res, err = run(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res.Metrics, s.PerLayer)
		})
	}
}

// TestCorruptReferenceFails shows that the reference checks bite: with
// one reference answer off by one, every workload's run fails.
func TestCorruptReferenceFails(t *testing.T) {
	for name := range workloads {
		name := name
		t.Run(name, func(t *testing.T) {
			o := options{workload: name, seed: 7, size: tinySizes, minReps: 1, corrupt: true}
			res, err := run(context.Background(), o)
			if !errors.Is(err, errMismatch) {
				t.Fatalf("error %v, want a reference mismatch", err)
			}
			if res == nil || res.Correct || res.Failed == 0 {
				t.Fatalf("result %+v, want a failed run", res)
			}
		})
	}
}
