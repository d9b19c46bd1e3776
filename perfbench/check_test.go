package main

import (
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"testing"
	"time"

	"threading/internal/models"
	"threading/internal/serve"
)

// cannedTarget serves a fixed body with the given status.
func cannedTarget(t *testing.T, code int, body string, want float64) *target {
	t.Helper()
	h := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(code)
		w.Write([]byte(body))
	})
	tg, err := newPlumbing(h, []reqClass{{name: "sum", path: "/run?kernel=sum", approx: true}}, []float64{want}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tg.close)
	return tg
}

func TestDoctoredResponseCountsAsFailed(t *testing.T) {
	for name, c := range map[string]struct {
		code int
		body string
		ok   bool
	}{
		"correct":       {200, `{"kernel":"sum","result":100}`, true},
		"within 1e-9":   {200, `{"kernel":"sum","result":100.00000001}`, true},
		"doctored":      {200, `{"kernel":"sum","result":100.001}`, false},
		"shed":          {429, `{"error":"admission queue full"}`, false},
		"not json":      {200, `oops`, false},
		"timeout (504)": {504, `{"error":"deadline"}`, false},
	} {
		tg := cannedTarget(t, c.code, c.body, 100)
		for _, tcp := range []bool{false, true} {
			if got := tg.do(0, 0, tcp); got != c.ok {
				t.Errorf("%s (tcp=%v): ok=%v, want %v", name, tcp, got, c.ok)
			}
		}
		if !c.ok {
			p := tg.run(1, 1, 2000, 20*time.Millisecond)
			if p.failed != p.sent || p.sent == 0 {
				t.Errorf("%s: point counted %d of %d sent as failed", name, p.failed, p.sent)
			}
		}
	}
}

func TestExactClassesMustMatchExactly(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"kernel":"axpy","result":3.0000000001}`))
	})
	tg, err := newPlumbing(h, []reqClass{{name: "axpy", path: "/run?kernel=axpy"}}, []float64{3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tg.close()
	if tg.do(0, 0, false) {
		t.Fatal("an axpy result off in the tenth digit passed the exact check")
	}
}

func TestServerAnswersMatchReference(t *testing.T) {
	w := workloads[0]
	cfg := serve.Config{Model: models.ShardedPrefix + models.CilkFor, Threads: 2, Balancer: "least-loaded"}
	want, err := references(cfg, w.classes())
	if err != nil {
		t.Fatal(err)
	}
	tg, err := newTarget(cfg, w.classes(), want, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	defer tg.close()
	for c := range tg.classes {
		if !tg.do(1, c, false) || !tg.do(0, c, true) {
			t.Errorf("class %s: %v", tg.classes[c].name, tg.failures)
		}
	}
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, want %+v with a bound in (0, 0.25]", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, m, d)
		}
	}
}
