package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"uno/internal/baselines"
	"uno/internal/transport"
)

// spec is the part of BENCHMARK.json the tests check against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmallWorkloadsEmitEveryMetric runs every workload of BENCHMARK.json
// at a tiny size, untraced and traced, and checks that the run is correct
// and reports every declared metric with its unit. Under -race it also
// covers the sharded engine's per-shard observers and decorator counters.
func TestSmallWorkloadsEmitEveryMetric(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloadNames))
	}
	for _, w := range s.Workloads {
		sc, err := newScenario(w.Name, smallSize)
		if err != nil {
			t.Fatal(err)
		}
		for _, trace := range []bool{false, true} {
			rep, err := measure(sc, 7, time.Millisecond, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			res := rep.result
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.Name, trace,
					res.Correct, res.Attempted, res.Failed, strings.Join(rep.notes, "\n"))
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json declares %d", w.Name, trace, len(res.Metrics), len(want))
			}
			if trace {
				sum := 0.0
				for name, m := range res.Metrics {
					if strings.HasSuffix(name, ".cpu_share") {
						sum += m.Value
					}
				}
				if math.Abs(sum-1) > 0.01 {
					t.Errorf("%s: cpu_share buckets sum to %v, want 1 ± 0.01", w.Name, sum)
				}
			}
		}
	}
}

// TestMixedUnoExercisesRecovery guards the transport counters: they are
// read from the slice Sim.Schedule returns, because on the classic engine
// Sim.Conns() holds nil placeholders and would report zero retransmissions
// and NACKs where the loss model certainly causes them.
func TestMixedUnoExercisesRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full mixed-uno workload")
	}
	sc, err := newScenario("mixed-uno", fullSize)
	if err != nil {
		t.Fatal(err)
	}
	o, err := runOnce(sc, 1, sc.shards, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.conn.PktsRetrans == 0 || o.conn.NacksReceived == 0 {
		t.Fatalf("mixed-uno reports transport.retx=%d transport.nacks=%d; want both > 0", o.conn.PktsRetrans, o.conn.NacksReceived)
	}
}

// cnmCC is a controller that takes QCN notifications.
type cnmCC struct {
	transport.FixedWindow
	cnms int
}

func (c *cnmCC) OnCnm(*transport.Conn, float64) { c.cnms++ }

// TestWrapCCForwardsCnmOnlyWhenInnerDoes pins the decorator's
// transparency for the connection's CnmReceiver type assertion.
func TestWrapCCForwardsCnmOnlyWhenInnerDoes(t *testing.T) {
	sp := &shardProbe{}
	if _, ok := wrapCC(&transport.FixedWindow{}, sp).(transport.CnmReceiver); ok {
		t.Error("wrapped FixedWindow offers OnCnm; the connection would treat it as an Annulus-style controller")
	}
	inner := &cnmCC{}
	r, ok := wrapCC(inner, sp).(transport.CnmReceiver)
	if !ok {
		t.Fatal("wrapped CnmReceiver lost OnCnm")
	}
	r.OnCnm(nil, 0.5)
	if inner.cnms != 1 || sp.ccCalls != 1 {
		t.Errorf("OnCnm forwarded %d times, counted %d calls; want 1 and 1", inner.cnms, sp.ccCalls)
	}
	if _, ok := wrapCC(baselines.NewAnnulus(&transport.FixedWindow{}), sp).(transport.CnmReceiver); !ok {
		t.Error("wrapped Annulus lost OnCnm")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"uno/internal/netsim.(*Port).Enqueue":                         "netsim",
		"uno/internal/netsim.(*fifo[go.shape.*uint8]).advance":        "netsim",
		"uno/internal/eventq.(*Scheduler).Run":                        "eventq",
		"uno/internal/transport.(*Conn).handleAck":                    "transport",
		"uno/internal/rng.(*Rand).Uint64":                             "other",
		"uno/internal/core.(*UnoCC).OnAck":                            "core",
		"main.(*ccProbe).OnAck":                                       "bench",
		"runtime.mallocgc":                                            "runtime",
		"time.Now":                                                    "runtime",
		"":                                                            "runtime",
		"uno/internal/harness.(*Sim).Schedule.func1":                  "harness",
		"uno/internal/topo.(*fatTreeRouter).Route":                    "topo",
		"uno/internal/netsim.(*fifo[uno/internal/netsim.arrival]).at": "netsim",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestRunRejectsBadArguments checks that a bad invocation exits non-zero
// without printing a result line.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "perm-ecmp", "--trace", "2"},
		{"--workload", "perm-ecmp", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q; want non-zero and no output", args, code, out.String())
		}
	}
}
