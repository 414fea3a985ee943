package main

import (
	"context"
	"io"
	"net/http/httptest"
	"testing"

	"resilex/internal/cluster"
	"resilex/internal/obs"
	"resilex/internal/serve"
)

// inProcess stands up the workload's deployment in the test process: one
// node, or two shards behind a router. It returns the entry URL and the
// shard URLs (routed only).
func inProcess(t *testing.T, routed bool) (string, []string) {
	t.Helper()
	node := func() string {
		s, err := serve.New(serve.Config{Observer: obs.New(), RestoreLog: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(s.Mux())
		t.Cleanup(srv.Close)
		return srv.URL
	}
	if !routed {
		return node(), nil
	}
	shards := []string{node(), node()}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Peers: shards, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt.Mux())
	t.Cleanup(srv.Close)
	return srv.URL, shards
}

// TestSmokeEachWorkload sends one round of every workload through the same
// client and checks as the benchmark, against in-process servers: every
// answer matches the truth, and the only failures are the named
// cross-shard batches.
func TestSmokeEachWorkload(t *testing.T) {
	pl, err := trainAll()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			in, err := buildInputs(name, 5)
			if err != nil {
				t.Fatal(err)
			}
			entry, shards := inProcess(t, in.Routed)
			keys := plainKeys()
			if in.Routed {
				if keys, err = placeKeys(shards); err != nil {
					t.Fatal(err)
				}
			}
			client := newClient()
			defer client.CloseIdleConnections()
			if err := register(ctx, client, entry, keys, pl, in.usesTuples()); err != nil {
				t.Fatal(err)
			}
			wires := make([]Wire, len(in.Requests))
			for i, r := range in.Requests {
				wires[i] = in.wire(r, keys)
			}
			ls := &loadStats{failures: map[string]int{}}
			runRound(ctx, client, entry, in, wires, ls)
			if ls.unexpected != 0 {
				t.Fatalf("%d unexpected failures, first: %v", ls.unexpected, ls.firstFailures)
			}
			wantFailed := 0
			if in.Routed {
				wantFailed = 1 // the round's cross-shard batch
			}
			if ls.failed != wantFailed || ls.failures[crossShardFault] != wantFailed {
				t.Fatalf("failed %d (%v), want %d cross-shard", ls.failed, ls.failures, wantFailed)
			}
			if ls.docsOK+len(in.Requests[len(in.Requests)-1].Docs)*wantFailed != in.Docs() {
				t.Fatalf("%d of %d docs correct", ls.docsOK, in.Docs())
			}
		})
	}
}

// TestSmokeTraced runs the traced mode for one round of the cheapest
// workload and checks that it answers correctly and reports every
// per-layer metric.
func TestSmokeTraced(t *testing.T) {
	res, err := runTraced(config{workload: "single-small", seed: 5, seconds: 0, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct || res.failed != 0 || res.attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.correct, res.attempted, res.failed, res.report)
	}
	for _, m := range perLayer {
		got, ok := res.metrics[m.name]
		if !ok || got.Unit != m.unit {
			t.Errorf("per-layer metric %s: got %+v, want unit %s", m.name, got, m.unit)
		}
	}
	if len(res.metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, %d listed", len(res.metrics), len(perLayer))
	}
}
