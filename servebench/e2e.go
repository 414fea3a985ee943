package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"
)

// deployment is the set of serve processes one workload runs against.
type deployment struct {
	procs  []*Proc
	entry  string   // base URL the client sends to
	shards []string // shard base URLs when routed
}

func (d *deployment) stop() {
	for i := len(d.procs) - 1; i >= 0; i-- {
		d.procs[i].Stop()
	}
}

// deploy starts one -mode single node, or two -mode shard nodes behind a
// -mode router with two replicas per key.
func deploy(bin string, routed bool) (*deployment, error) {
	n := runtime.NumCPU()
	d := &deployment{}
	if !routed {
		p, err := startServe(bin, "single", n, "-mode", "single")
		if err != nil {
			return nil, err
		}
		d.procs = []*Proc{p}
		d.entry = p.URL
		return d, nil
	}
	for i := 0; i < 2; i++ {
		p, err := startServe(bin, fmt.Sprintf("shard%d", i), n, "-mode", "shard")
		if err != nil {
			d.stop()
			return nil, err
		}
		d.procs = append(d.procs, p)
		d.shards = append(d.shards, p.URL)
	}
	rt, err := startServe(bin, "router", n, "-mode", "router",
		"-peers", strings.Join(d.shards, ","), "-replicas", "2")
	if err != nil {
		d.stop()
		return nil, err
	}
	d.procs = append(d.procs, rt)
	d.entry = rt.URL
	return d, nil
}

// newClient returns the load generator's client: one connection per server,
// as one closed-loop caller would hold.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// send issues one request and reads the whole response.
func send(ctx context.Context, client *http.Client, base string, w Wire) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, w.Method, base+w.Path, bytes.NewReader(w.Body))
	if err != nil {
		return 0, nil, err
	}
	if w.ContentType != "" {
		req.Header.Set("Content-Type", w.ContentType)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// register PUTs every site's wrapper: the record wrapper for the records
// workload, the single-pivot wrapper otherwise. Through a router each PUT
// is replicated to the key's two owners.
func register(ctx context.Context, client *http.Client, base string, keys Keys, pl []Payloads, tuples bool) error {
	for s, key := range keys {
		body := pl[s].Single
		if tuples {
			body = pl[s].Tuple
		}
		status, resp, err := send(ctx, client, base, Wire{"PUT", "/wrappers/" + key, "application/json", body})
		if err != nil {
			return fmt.Errorf("registering %s: %w", key, err)
		}
		if status != http.StatusOK && status != http.StatusCreated {
			return fmt.Errorf("registering %s: status %d: %s", key, status, resp)
		}
	}
	return nil
}

// setup is one timed set-up: spawn the processes, register every wrapper,
// and answer the round's first request correctly. Encoding the round's
// request bodies is client work and is left out of the time.
func setup(ctx context.Context, bin string, in *Inputs, pl []Payloads) (*deployment, []Wire, time.Duration, error) {
	t0 := time.Now()
	d, err := deploy(bin, in.Routed)
	if err != nil {
		return nil, nil, 0, err
	}
	spawned := time.Since(t0)
	keys := plainKeys()
	if in.Routed {
		if keys, err = placeKeys(d.shards); err != nil {
			d.stop()
			return nil, nil, 0, err
		}
	}
	wires := make([]Wire, len(in.Requests))
	for i, r := range in.Requests {
		wires[i] = in.wire(r, keys)
	}
	client := newClient()
	defer client.CloseIdleConnections()
	t1 := time.Now()
	if err := register(ctx, client, d.entry, keys, pl, in.usesTuples()); err != nil {
		d.stop()
		return nil, nil, 0, err
	}
	status, body, err := send(ctx, client, d.entry, wires[0])
	if err == nil {
		if o := check(in.Workload, in.Requests[0], status, body); o.failure != "" {
			err = fmt.Errorf("set-up extraction failed: %s", o.failure)
		}
	}
	if err != nil {
		d.stop()
		return nil, nil, 0, err
	}
	return d, wires, spawned + time.Since(t1), nil
}

// loadStats is what the closed loop observed over the timed rounds.
type loadStats struct {
	rounds        int
	attempted     int            // requests sent
	failed        int            // requests not answered correctly
	unexpected    int            // failures other than the named fault
	failures      map[string]int // failed requests by reason
	docsSent      int
	docsOK        int
	latencies     []float64 // ms; +Inf for a failed request
	windowRates   []float64 // correct docs per second of sending time, one per window
	elapsed       time.Duration
	firstFailures []string
}

func (ls *loadStats) record(o outcome) {
	if o.failure == "" {
		return
	}
	ls.failed++
	if !o.expected() {
		ls.unexpected++
		if len(ls.firstFailures) < 5 {
			ls.firstFailures = append(ls.firstFailures, o.failure)
		}
	}
	reason := o.failure
	if !o.expected() {
		reason = "wrong or missing answer"
	}
	ls.failures[reason]++
}

// runRound sends one round in order, one request at a time (a closed loop
// with one client), and checks every answer. It returns the round's
// sending time, which excludes the client's checking.
func runRound(ctx context.Context, client *http.Client, base string, in *Inputs, wires []Wire, ls *loadStats) time.Duration {
	var busy time.Duration
	for i, w := range wires {
		r := in.Requests[i]
		t := time.Now()
		status, body, err := send(ctx, client, base, w)
		lat := time.Since(t)
		busy += lat
		var o outcome
		if err != nil {
			o = outcome{failure: "transport: " + err.Error()}
		} else {
			o = check(in.Workload, r, status, body)
		}
		ls.attempted++
		ls.docsSent += len(r.Docs)
		ls.docsOK += o.docsOK
		ls.record(o)
		if o.failure != "" {
			ls.latencies = append(ls.latencies, math.Inf(1))
		} else {
			ls.latencies = append(ls.latencies, float64(lat)/float64(time.Millisecond))
		}
	}
	return busy
}

// windowBusy is the least sending time a measurement window holds. A window
// is a run of whole rounds, and docs_per_s is the best window's rate. On the
// 2-vCPU host this benchmark was built on, the hypervisor steals up to a
// third of CPU time in bursts, and the same work runs in a fast and a ~1.4×
// slower state, each lasting from a fraction of a second to seconds, in
// shares that change from run to run (README.md, "Steadiness"). A rate taken
// over the whole run, or the median window's, moves with those shares; the
// best window of about this length falls outside them in every run.
const windowBusy = 100 * time.Millisecond

// runLoad warms a fresh deployment up with one round (lazily built
// automaton states, pools and connections settle in it), calls beforeTimed,
// then repeats whole rounds until at least seconds have passed, adding to
// ls. Rounds are grouped into windows of at least windowBusy sending time;
// a last window left shorter than that is rated only if it is the only one.
func runLoad(ctx context.Context, client *http.Client, base string, in *Inputs, wires []Wire, seconds float64, ls *loadStats, beforeTimed func()) {
	warm := &loadStats{failures: map[string]int{}}
	runRound(ctx, client, base, in, wires, warm)
	ls.unexpected += warm.unexpected
	ls.firstFailures = append(ls.firstFailures, warm.firstFailures...)
	beforeTimed()
	start := time.Now()
	var busy time.Duration
	ok0 := ls.docsOK
	closeWindow := func() {
		ls.windowRates = append(ls.windowRates, float64(ls.docsOK-ok0)/busy.Seconds())
		busy, ok0 = 0, ls.docsOK
	}
	windows := len(ls.windowRates)
	for first := true; first || time.Since(start).Seconds() < seconds; first = false {
		busy += runRound(ctx, client, base, in, wires, ls)
		ls.rounds++
		if busy >= windowBusy {
			closeWindow()
		}
	}
	if busy > 0 && len(ls.windowRates) == windows {
		closeWindow()
	}
	ls.elapsed += time.Since(start)
}

// quantile is the q-quantile of xs, interpolating between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest of p99.9, p99 and p90 that has at
// least ten samples beyond it, with its label; ok is false below 40 samples.
func tailPercentile(xs []float64) (label string, v float64, ok bool) {
	n := len(xs)
	if n < 40 {
		return "", 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		if float64(n)*(1-p.q) >= 10 {
			return p.label, s[int(math.Ceil(p.q*float64(n)))-1], true
		}
	}
	return "", 0, false
}
