package main

import (
	"math"
	"sort"
	"time"
)

// layerAgg turns each traced request's spans into per-layer figures and
// ladder checks, and reports their medians over the run.
type layerAgg struct {
	series map[string][]float64    // per-layer metric → one value per request
	checks map[string][][3]float64 // ladder check → (ladder step, span self time, upper rung) per request
	order  []string
}

// perLayer lists every per-layer metric with its unit, in the order
// BENCHMARK.json gives them. Times are µs per document unless noted: the
// serve.*, obs.* and cluster.* figures and wrapper.batch_dispatch_us are
// per request (a batch is one request), wrapper.load_ms per payload.
var perLayer = []struct{ name, unit string }{
	{"serve.mux_us", "us"}, {"serve.request_self_us", "us"}, {"serve.http_self_us", "us"}, {"serve.mux_kb", "KB"},
	{"obs.overhead_us", "us"},
	{"wrapper.extract_us", "us"}, {"wrapper.batch_dispatch_us", "us"}, {"wrapper.stream_us", "us"},
	{"wrapper.stream_allocs", "count"}, {"wrapper.tuples_us", "us"}, {"wrapper.load_ms", "ms"},
	{"htmltok.scan_us", "us"}, {"htmltok.scan_kb", "KB"}, {"htmltok.stream_us", "us"}, {"htmltok.tokens", "count"},
	{"symtab.map_self_us", "us"}, {"symtab.map_kb", "KB"}, {"symtab.stream_resolve_us", "us"},
	{"symtab.in_sigma_tokens", "count"}, {"symtab.dropped_tokens", "count"},
	{"extract.find_us", "us"}, {"extract.stream_feed_us", "us"}, {"extract.live_threads_max", "count"},
	{"spanner.run_us", "us"}, {"spanner.run_kb", "KB"}, {"spanner.records", "count"},
	{"cluster.hop_us", "us"},
	{"trace.overhead_us", "us"}, {"ladder.disagreements", "count"},
}

func unitOf(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("servebench: no unit for per-layer metric " + name)
}

func (a *layerAgg) put(name string, v float64) {
	if a.series == nil {
		a.series = map[string][]float64{}
	}
	a.series[name] = append(a.series[name], v)
}

func (a *layerAgg) check(name string, ladder, span, upper float64) {
	if a.checks == nil {
		a.checks = map[string][][3]float64{}
	}
	if _, ok := a.checks[name]; !ok {
		a.order = append(a.order, name)
	}
	a.checks[name] = append(a.checks[name], [3]float64{ladder, span, upper})
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// spanIndex looks spans of one request up by name and parent.
type spanIndex struct {
	byName map[string][]spanRec
	self   map[int]time.Duration
}

func indexSpans(spans []spanRec) spanIndex {
	ix := spanIndex{byName: map[string][]spanRec{}, self: selfTimes(spans)}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
	}
	return ix
}

// walk returns the index of the k-th walk down the ladder: of the root's
// children that share a name (one rung per walk), only the k-th, or the last
// for a span taken once per request. ok is false once k is past every walk.
func (ix spanIndex) walk(root, k int) (w spanIndex, ok bool) {
	w = spanIndex{byName: map[string][]spanRec{}, self: ix.self}
	for name, ss := range ix.byName {
		var rungs []spanRec
		for _, s := range ss {
			if s.Parent == root {
				rungs = append(rungs, s)
			}
		}
		switch {
		case len(rungs) == 0:
			w.byName[name] = ss
		case k < len(rungs):
			w.byName[name] = rungs[k : k+1]
			ok = ok || k == 0 || len(rungs) > 1
		default:
			w.byName[name] = rungs[len(rungs)-1:]
		}
	}
	return w, ok
}

// sum is the total duration of the spans called name, in µs.
func (ix spanIndex) sum(name string) float64 {
	t := 0.0
	for _, s := range ix.byName[name] {
		t += us(s.dur())
	}
	return t
}

func (ix spanIndex) first(name string) spanRec {
	if ss := ix.byName[name]; len(ss) > 0 {
		return ss[0]
	}
	return spanRec{}
}

func (ix spanIndex) child(parent spanRec, name string) spanRec {
	for _, s := range ix.byName[name] {
		if s.Parent == parent.ID {
			return s
		}
	}
	return spanRec{}
}

func (ix spanIndex) selfUS(s spanRec) float64 { return us(ix.self[s.ID]) }

// addLadder derives the serve, obs and cluster figures and the ladder
// checks from one ladder request's spans, walk by walk: the two sides of a
// check come from rungs of one walk, which ran back to back.
func (a *layerAgg) addLadder(workload string, q tracedRequest, spans []spanRec) {
	ix := indexSpans(spans)
	for k := 0; ; k++ {
		w, ok := ix.walk(spans[0].ID, k)
		if !ok {
			return
		}
		a.addWalk(workload, q, w)
	}
}

func (a *layerAgg) addWalk(workload string, q tracedRequest, ix spanIndex) {
	mux, direct := ix.sum("serve.mux"), ix.sum(directSpan(workload))
	loop := ix.first("http.loopback")
	// The handler's self time excludes its waits for request-body bytes:
	// the span view of the mux's own work.
	handlerSelf := ix.selfUS(ix.child(loop, "serve.handler"))
	httpSelf := us(loop.dur()) - handlerSelf
	a.put("serve.mux_us", mux)
	a.put("serve.request_self_us", mux-direct)
	a.put("serve.http_self_us", httpSelf)
	a.put("obs.overhead_us", mux-ix.sum("serve.mux_noobs"))
	a.check("request (mux − direct call)", mux-direct, handlerSelf-direct, mux)
	a.check("http (loopback − mux)", us(loop.dur())-mux, httpSelf, us(loop.dur()))
	if q.req.CrossShard { // the router refuses these before any hop
		return
	}
	directX := loop
	if !routeIsExtract(workload) {
		directX = ix.first("http.extract_direct")
	}
	routed := ix.first("http.router")
	hop := us(routed.dur()) - us(directX.dur())
	a.put("cluster.hop_us", hop)
	if !routeIsExtract(workload) {
		return // measured by hopProbe, off the workload's path: no ladder step
	}
	// Outside the shard's own work, routed minus direct.
	shardSelf := ix.selfUS(ix.child(ix.child(routed, "router.handler"), "serve.handler"))
	directSelf := ix.selfUS(ix.child(directX, "serve.handler"))
	spanHop := (us(routed.dur()) - shardSelf) - (us(directX.dur()) - directSelf)
	a.check("hop (router − loopback)", hop, spanHop, us(routed.dur()))
}

// addLayers derives the per-document layer figures from one layer
// request's spans and the pre-pass counts.
func (a *layerAgg) addLayers(q tracedRequest, spans []spanRec) {
	ix := indexSpans(spans)
	docs := float64(len(q.req.Docs))
	perDoc := func(name string) float64 { return ix.sum(name) / docs }
	a.put("wrapper.extract_us", perDoc("wrapper.extract"))
	a.put("wrapper.batch_dispatch_us", ix.sum("wrapper.batch_serial")-ix.sum("wrapper.extract_serial"))
	a.put("wrapper.stream_us", perDoc("wrapper.stream"))
	a.put("wrapper.tuples_us", perDoc("wrapper.tuples"))
	a.put("htmltok.scan_us", perDoc("htmltok.scan"))
	a.put("htmltok.stream_us", perDoc("htmltok.stream"))
	a.put("symtab.map_self_us", perDoc("symtab.map")-perDoc("htmltok.scan"))
	a.put("symtab.stream_resolve_us", perDoc("htmltok.stream+resolve")-perDoc("htmltok.stream"))
	a.put("extract.find_us", perDoc("extract.find"))
	a.put("extract.stream_feed_us", perDoc("extract.stream_feed"))
	a.put("spanner.run_us", perDoc("spanner.run"))
	var tokens, inSigma, dropped, records, live float64
	for _, pr := range q.probes {
		tokens += float64(pr.tokens)
		inSigma += float64(pr.inSigma)
		dropped += float64(pr.dropped)
		records += float64(pr.records)
		live = math.Max(live, float64(pr.liveMax))
	}
	a.put("htmltok.tokens", tokens/docs)
	a.put("symtab.in_sigma_tokens", inSigma/docs)
	a.put("symtab.dropped_tokens", dropped/docs)
	a.put("spanner.records", records/docs)
	a.put("extract.live_threads_max", live)
	a.check("engine (Extract vs Map + Find)", ix.sum("wrapper.extract"), ix.sum("symtab.map")+ix.sum("extract.find"), ix.sum("wrapper.extract"))
}

// ladderTolerance is how far a ladder step and the matching span self time
// may differ, as the median over requests of their difference: a tenth of
// the upper rung's median plus 5 µs.
func ladderTolerance(upper float64) float64 { return 0.10*upper + 5 }

// report adds every per-layer metric's median and prints the ladder checks.
func (a *layerAgg) report(res *result, workload string) {
	names := make([]string, 0, len(a.series))
	for n := range a.series {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := median(a.series[n])
		if n == "extract.live_threads_max" {
			v = 0
			for _, x := range a.series[n] {
				v = math.Max(v, x)
			}
		}
		res.add(n, unitOf(n), v)
	}
	failed := 0
	for _, name := range a.order {
		rows := a.checks[name]
		var ladder, span, diff, upper []float64
		for _, r := range rows {
			ladder = append(ladder, r[0])
			span = append(span, r[1])
			diff = append(diff, r[0]-r[1])
			upper = append(upper, r[2])
		}
		// The verdict is on the per-request differences: the two sides of a
		// check share most of their rungs, and pairing them cancels those
		// rungs' noise.
		d, tol := median(diff), ladderTolerance(median(upper))
		verdict := "agrees"
		if math.Abs(d) > tol {
			verdict = "DISAGREES"
			failed++
		}
		res.logf("# ladder %s: step %.1f µs, span self time %.1f µs, median difference %.1f µs, tolerance %.1f µs: %s",
			name, median(ladder), median(span), d, tol, verdict)
	}
	res.add("ladder.disagreements", "count", float64(failed))
	res.logf("# direct rung for %s: %s", workload, directSpan(workload))
}
