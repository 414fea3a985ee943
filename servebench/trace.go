package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"resilex/internal/cluster"
	"resilex/internal/extract"
	"resilex/internal/htmltok"
	"resilex/internal/obs"
	"resilex/internal/serve"
	"resilex/internal/spanner"
	"resilex/internal/symtab"
	"resilex/internal/wrapper"
)

// spanRec is one timed call of the traced run.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a request's root span
	Req    int    `json:"req"`    // the request (trace) the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the tracer started
	End    int64  `json:"endNs"`
}

func (s spanRec) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. Calls are strictly nested in time (one
// request is in flight, and the in-process servers' handlers run inside the
// client call that reached them), so the innermost open span, whichever
// goroutine opened it, is the parent of the next one.
type tracer struct {
	on      atomic.Bool
	mu      sync.Mutex
	t0      time.Time
	req     int
	open    []int // stack of open span IDs
	spans   []spanRec
	byReqAt int // index of the current request's first span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(true)
	return t
}

func (t *tracer) start(name string) int {
	if !t.on.Load() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Req: t.req, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// do runs f inside a span.
func (t *tracer) do(name string, f func()) {
	id := t.start(name)
	f()
	t.end(id)
}

// beginRequest opens a root span for request n.
func (t *tracer) beginRequest(n int, name string) int {
	t.mu.Lock()
	t.req = n
	t.byReqAt = len(t.spans)
	t.mu.Unlock()
	return t.start(name)
}

// current returns the spans recorded since the last beginRequest.
func (t *tracer) current() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[t.byReqAt:]
}

// keepCurrent keeps the current request's spans for the span file while
// fewer than maxStoredSpans are kept, and otherwise drops them; it reports
// whether it kept them. Span IDs index t.spans, so only the latest
// request's spans can be dropped.
func (t *tracer) keepCurrent() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) <= maxStoredSpans {
		return true
	}
	t.spans = t.spans[:t.byReqAt]
	return false
}

// maxStoredSpans bounds the spans kept in memory and written out. Spans of
// later requests still feed the per-layer figures.
const maxStoredSpans = 100_000

// handler wraps an in-process server's handler in a span, with a child
// span around every read of the request body. A large body is still
// arriving while the handler runs; the time spent waiting for it belongs to
// the HTTP layer, not to the handler's own work.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.start(name)
		r.Body = &tracedBody{t: t, ReadCloser: r.Body}
		h.ServeHTTP(w, r)
		t.end(id)
	})
}

// tracedBody records a span around each Read of a request body.
type tracedBody struct {
	t *tracer
	io.ReadCloser
}

func (b *tracedBody) Read(p []byte) (n int, err error) {
	b.t.do("http.body_read", func() { n, err = b.ReadCloser.Read(p) })
	return n, err
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []spanRec) map[int]time.Duration {
	children := map[int][]spanRec{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		cur := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// siteLayers is one site's in-process layer objects: the public types each
// layer exports, built from the same payloads the servers receive.
type siteLayers struct {
	single  *wrapper.Wrapper
	stream  *wrapper.StreamExtractor
	tuple   *wrapper.TupleWrapper
	matcher *extract.Matcher
	sm      *extract.StreamMatcher
	prog    *spanner.Program
	mapper  *htmltok.Mapper // the single-pivot wrapper's tokenizer settings and table
	tmapper *htmltok.Mapper // the record wrapper's
	sigma   symtab.Alphabet
}

func newMapper(tab *symtab.Table) *htmltok.Mapper {
	m := htmltok.NewMapper(tab)
	m.Skip = map[string]bool{"BR": true}
	return m
}

func buildLayers(pl []Payloads, keys Keys) ([]*siteLayers, *wrapper.Fleet, error) {
	fleet := wrapper.NewFleet()
	out := make([]*siteLayers, len(pl))
	for s, p := range pl {
		w, err := wrapper.Load(p.Single, wrapperOptions)
		if err != nil {
			return nil, nil, err
		}
		se, err := w.Stream()
		if err != nil {
			return nil, nil, err
		}
		tw, err := wrapper.LoadTuple(p.Tuple, wrapperOptions)
		if err != nil {
			return nil, nil, err
		}
		m, err := w.Expr().Compile()
		if err != nil {
			return nil, nil, err
		}
		sm, err := w.Expr().CompileStream()
		if err != nil {
			return nil, nil, err
		}
		// The record wrapper keeps its symbol table private, so the spanner
		// layer gets its own parse of the same expression and alphabet.
		tab := symtab.NewTable()
		tuple, err := extract.ParseTuple(p.TupleExpr, tab, symtab.NewAlphabet(tab.InternAll(p.TupleSigma...)...), wrapperOptions)
		if err != nil {
			return nil, nil, err
		}
		prog, err := spanner.Compile(tuple, wrapperOptions)
		if err != nil {
			return nil, nil, err
		}
		fleet.Add(keys[s], w)
		out[s] = &siteLayers{
			single: w, stream: se, tuple: tw, matcher: m, sm: sm, prog: prog,
			mapper: newMapper(w.Table()), tmapper: newMapper(tab),
			sigma: w.Expr().Sigma(),
		}
	}
	return out, fleet, nil
}

// tracedStack is the in-process deployment of a traced run: two shards
// behind a router, each a serve.Server behind a span-recording handler on a
// loopback listener, plus an observer-less server for the obs rung.
type tracedStack struct {
	tr        *tracer
	shardSrv  []*httptest.Server
	routerSrv *httptest.Server
	noObsMux  http.Handler
	shardMux  []http.Handler
}

func (st *tracedStack) close() {
	if st.routerSrv != nil {
		st.routerSrv.Close()
	}
	for _, s := range st.shardSrv {
		s.Close()
	}
}

func newTracedStack(tr *tracer) (*tracedStack, error) {
	st := &tracedStack{tr: tr}
	for i := 0; i < 2; i++ {
		s, err := serve.New(serve.Config{Observer: obs.New()})
		if err != nil {
			st.close()
			return nil, err
		}
		mux := s.Mux()
		st.shardMux = append(st.shardMux, mux)
		st.shardSrv = append(st.shardSrv, httptest.NewServer(tr.handler("serve.handler", mux)))
	}
	noObs, err := serve.New(serve.Config{})
	if err != nil {
		st.close()
		return nil, err
	}
	st.noObsMux = noObs.Mux()
	// The router's health loop is not started: it would allocate in the
	// middle of the allocation measurements. Routing works without it.
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Peers:    []string{st.shardSrv[0].URL, st.shardSrv[1].URL},
		Replicas: 2,
		Observer: obs.New(),
	})
	if err != nil {
		st.close()
		return nil, err
	}
	st.routerSrv = httptest.NewServer(tr.handler("router.handler", rt.Mux()))
	return st, nil
}

// register puts every payload on both shards through the router, and on the
// observer-less server directly: single-pivot wrappers under keys, record
// wrappers under tkeys.
func (st *tracedStack) register(ctx context.Context, client *http.Client, keys, tkeys Keys, pl []Payloads) error {
	if err := register(ctx, client, st.routerSrv.URL, keys, pl, false); err != nil {
		return err
	}
	if err := register(ctx, client, st.routerSrv.URL, tkeys, pl, true); err != nil {
		return err
	}
	for _, k := range []struct {
		keys   Keys
		tuples bool
	}{{keys, false}, {tkeys, true}} {
		for s, key := range k.keys {
			body := pl[s].Single
			if k.tuples {
				body = pl[s].Tuple
			}
			rec := httptest.NewRecorder()
			st.noObsMux.ServeHTTP(rec, httptest.NewRequest("PUT", "/wrappers/"+key, bytes.NewReader(body)))
			if rec.Code != http.StatusOK && rec.Code != http.StatusCreated {
				return fmt.Errorf("registering %s without observer: %d %s", key, rec.Code, rec.Body)
			}
		}
	}
	return nil
}

// serveMem runs one request through a mux with an in-memory recorder.
func serveMem(h http.Handler, w Wire) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(w.Method, w.Path, bytes.NewReader(w.Body))
	if w.ContentType != "" {
		req.Header.Set("Content-Type", w.ContentType)
	}
	h.ServeHTTP(rec, req)
	return rec
}

// docProbe is what the untraced pre-pass learns about one document: its
// resolved symbol word for the stream matcher, the record wrapper's word
// for the spanner, and the per-layer counts.
type docProbe struct {
	page             []byte
	word, tword      []symtab.Symbol
	tokens           int
	inSigma, dropped int
	liveMax, records int
}

func probeDoc(sl *siteLayers, html string) docProbe {
	p := docProbe{page: []byte(html)}
	p.tokens = len(htmltok.Scan(html))
	m := newMapper(sl.single.Table())
	st := htmltok.NewStreamer(func(rt htmltok.RawToken) {
		sym, ok := m.StreamSym(rt)
		if !ok {
			p.dropped++
			return
		}
		if sym != symtab.None && sl.sigma.Contains(sym) {
			p.inSigma++
		}
		p.word = append(p.word, sym)
	})
	st.Feed(p.page)
	st.Close()
	run := sl.sm.Get(extract.FindLeftmost)
	var live []int32
	for _, sym := range p.word {
		run.Feed(sym)
		live = run.Live(live[:0])
		p.liveMax = max(p.liveMax, len(live))
	}
	sl.sm.Put(run)
	p.tword = sl.tmapper.Map(html).Syms
	if m, err := sl.prog.Run(p.tword); err == nil {
		if all, err := m.All(); err == nil {
			p.records = len(all)
		}
	}
	return p
}

const streamChunk = 32 << 10 // the chunk size wrapper.StreamExtractor reads with

func discardRegion(wrapper.StreamRegion) error { return nil }

// feedChunks feeds html to a streamer in stream-sized chunks.
func feedChunks(st *htmltok.Streamer, page []byte) {
	for off := 0; off < len(page); off += streamChunk {
		st.Feed(page[off:min(off+streamChunk, len(page))])
	}
	st.Close()
}

// layerCalls times every layer's public call on one document.
func layerCalls(ctx context.Context, tr *tracer, sl *siteLayers, p Page, pr docProbe) {
	page := pr.page
	var rd bytes.Reader
	do := tr.do
	if len(page) >= largeBytes {
		do = func(name string, f func()) {
			isolated(true, func() { tr.do(name, f) })
		}
	}
	do("wrapper.extract", func() { _, _ = sl.single.ExtractContext(ctx, p.HTML) })
	do("wrapper.stream", func() {
		rd.Reset(page)
		_ = sl.stream.ExtractReaderTo(ctx, &rd, discardRegion)
	})
	do("wrapper.tuples", func() { _, _ = sl.tuple.ExtractAllContext(ctx, p.HTML) })
	do("htmltok.scan", func() { htmltok.Scan(p.HTML) })
	var syms []symtab.Symbol
	do("symtab.map", func() { syms = sl.mapper.Map(p.HTML).Syms })
	do("extract.find", func() { sl.matcher.Find(syms) })
	noop := htmltok.NewStreamer(func(htmltok.RawToken) {})
	do("htmltok.stream", func() { feedChunks(noop, page) })
	m := newMapper(sl.single.Table())
	resolving := htmltok.NewStreamer(func(rt htmltok.RawToken) { m.StreamSym(rt) })
	do("htmltok.stream+resolve", func() { feedChunks(resolving, page) })
	do("extract.stream_feed", func() {
		run := sl.sm.Get(extract.FindLeftmost)
		for _, sym := range pr.word {
			run.Feed(sym)
		}
		run.Find()
		sl.sm.Put(run)
	})
	do("spanner.run", func() {
		if m, err := sl.prog.Run(pr.tword); err == nil {
			_, _ = m.All()
		}
	})
}

// tracedRequest is one request of the round with everything the traced run
// sends for it.
type tracedRequest struct {
	req     Request
	bytes   int  // page bytes the request carries
	route   Wire // the workload's own route, as the end-to-end run sends it
	extract Wire // the request's documents as a POST /extract batch
	probes  []docProbe
}

// ladderReps is how often each ladder request walks the ladder.
const ladderReps = 3

// largeBytes is the request (or page) size from which every ladder rung,
// and every layer call on the page, runs isolated. A rung of a large
// request allocates tens of MB, and the in-process router, shards and layer
// calls share one heap: a collection started by one layer's garbage is paid
// for by whichever runs next, and two rungs' difference is then mostly
// collector noise.
const largeBytes = 256 << 10

// isolated runs f, if large, from a collected heap with the collector held
// off until it returns; figures timed inside it leave collection out.
func isolated(large bool, f func()) {
	if !large {
		f()
		return
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
}

// directSpan names the wrapper call the server makes for a workload's
// request: the bottom rung of the ladder.
func directSpan(workload string) string {
	switch workload {
	case "stream-large":
		return "wrapper.stream"
	case "records":
		return "wrapper.tuples"
	default:
		return "wrapper.batch"
	}
}

// routeIsExtract reports whether the workload's own route is POST /extract,
// so its loopback rung doubles as the direct side of the router hop.
func routeIsExtract(workload string) bool {
	return directSpan(workload) == "wrapper.batch"
}

// ladderRequest sends one request down every rung of the ladder on the
// workload's own route — the wrapper call the server makes, the mux in
// memory (with and without an observer), loopback HTTP, and for POST
// /extract the router — and checks the served answers against the truth.
// rot rotates the rung order, so that no rung always runs right after the
// same neighbour and pays for its garbage.
func ladderRequest(ctx context.Context, st *tracedStack, client *http.Client, in *Inputs, sls []*siteLayers, fleet *wrapper.Fleet, keys Keys, q tracedRequest, rot int) outcome {
	tr := st.tr
	p := q.req.Docs[0]
	var loopback, routed outcome
	rungs := []func(){
		func() {
			switch in.Workload {
			case "stream-large":
				tr.do("wrapper.stream", func() {
					_ = sls[p.Site].stream.ExtractReaderTo(ctx, bytes.NewReader(q.probes[0].page), discardRegion)
				})
			case "records":
				tr.do("wrapper.tuples", func() { _, _ = sls[p.Site].tuple.ExtractAllContext(ctx, p.HTML) })
			default:
				tr.do("wrapper.batch", func() {
					fleet.ExtractBatch(ctx, batchDocs(q.req.Docs, keys), wrapper.BatchOptions{})
				})
			}
		},
		func() { tr.do("serve.mux", func() { serveMem(st.shardMux[0], q.route) }) },
		func() { tr.do("serve.mux_noobs", func() { serveMem(st.noObsMux, q.route) }) },
		func() {
			loopback = tracedSend(ctx, tr, client, "http.loopback", st.shardSrv[0].URL, q.route, in.Workload, q.req)
		},
	}
	if routeIsExtract(in.Workload) {
		// The router refuses cross-shard batches: checked as batch-routed.
		rungs = append(rungs, func() {
			routed = tracedSend(ctx, tr, client, "http.router", st.routerSrv.URL, q.route, "batch-routed", q.req)
		})
	}
	for i := range rungs {
		isolated(q.bytes >= largeBytes, rungs[(i+rot)%len(rungs)])
	}
	if loopback.failure != "" {
		return loopback // the shard answered its own route wrongly: never expected
	}
	return routed
}

// hopProbe measures the router hop for a workload whose route the router
// does not serve (it serves only POST /extract): the request's documents go
// as one batch through the router and straight to a shard. It is not a
// ladder rung, since the workload never takes that path.
func hopProbe(ctx context.Context, tr *tracer, client *http.Client, st *tracedStack, q tracedRequest) outcome {
	var routed, direct outcome
	isolated(q.bytes >= largeBytes, func() {
		routed = tracedSend(ctx, tr, client, "http.router", st.routerSrv.URL, q.extract, "batch-routed", q.req)
	})
	isolated(q.bytes >= largeBytes, func() {
		direct = tracedSend(ctx, tr, client, "http.extract_direct", st.shardSrv[0].URL, q.extract, "batch-routed", q.req)
	})
	if direct.failure != "" {
		return direct
	}
	return routed
}

// tracedSend sends one request inside a span and checks the answer as the
// workload's.
func tracedSend(ctx context.Context, tr *tracer, client *http.Client, span, base string, w Wire, workload string, r Request) outcome {
	var status int
	var body []byte
	var err error
	tr.do(span, func() { status, body, err = send(ctx, client, base, w) })
	if err != nil {
		return outcome{failure: "transport: " + err.Error()}
	}
	return check(workload, r, status, body)
}

// layerRequest runs every layer's public call on each document of the
// request, plus the fleet's batch dispatch over all of them.
func layerRequest(ctx context.Context, tr *tracer, sls []*siteLayers, fleet *wrapper.Fleet, keys Keys, q tracedRequest, batchFirst bool) {
	// One worker: the batch call then takes its per-doc extracts one after
	// another, and what it takes beyond them is the dispatch. The same
	// extracts run back to back beside it, under the same collector regime;
	// which of the two goes first alternates from request to request.
	large := q.bytes >= largeBytes
	batch := func() {
		tr.do("wrapper.batch_serial", func() {
			fleet.ExtractBatch(ctx, batchDocs(q.req.Docs, keys), wrapper.BatchOptions{Workers: 1})
		})
	}
	extracts := func() {
		for _, p := range q.req.Docs {
			tr.do("wrapper.extract_serial", func() { _, _ = sls[p.Site].single.ExtractContext(ctx, p.HTML) })
		}
	}
	if !batchFirst {
		batch, extracts = extracts, batch
	}
	isolated(large, batch)
	isolated(large, extracts)
	for i, p := range q.req.Docs {
		layerCalls(ctx, tr, sls[p.Site], p, q.probes[i])
	}
}

func batchDocs(docs []Page, keys Keys) []wrapper.BatchDoc {
	out := make([]wrapper.BatchDoc, len(docs))
	for i, p := range docs {
		out[i] = wrapper.BatchDoc{Key: keys[p.Site], HTML: p.HTML}
	}
	return out
}

// coldLoads times restoring each payload the workload registers from its
// JSON, compiling from scratch, three times each; it returns the median
// over payloads of each payload's median, in ms.
func coldLoads(tr *tracer, pl []Payloads, tuples bool) (float64, error) {
	var perPayload []float64
	for _, p := range pl {
		var times []float64
		for i := 0; i < 3; i++ {
			var err error
			t := time.Now()
			tr.do("wrapper.load", func() {
				if tuples {
					_, err = wrapper.LoadTuple(p.Tuple, wrapperOptions)
				} else {
					_, err = wrapper.Load(p.Single, wrapperOptions)
				}
			})
			if err != nil {
				return 0, err
			}
			times = append(times, float64(time.Since(t))/float64(time.Millisecond))
		}
		perPayload = append(perPayload, median(times))
	}
	return median(perPayload), nil
}

// tracingOverhead runs a request's layer calls untraced and traced, in
// alternating order, and returns traced minus untraced in µs per document,
// and the spans per document of the traced pass. Those spans are dropped.
func tracingOverhead(ctx context.Context, tr *tracer, sls []*siteLayers, q tracedRequest, tracedFirst bool) (us, spans float64) {
	var traced, untraced time.Duration
	n := 0
	pass := func(on bool) time.Duration {
		runtime.GC() // neither pass pays for the other's garbage
		tr.on.Store(on)
		mark := len(tr.spans)
		t := time.Now()
		for i, p := range q.req.Docs {
			layerCalls(ctx, tr, sls[p.Site], p, q.probes[i])
		}
		d := time.Since(t)
		tr.mu.Lock()
		n += len(tr.spans) - mark
		tr.spans = tr.spans[:mark]
		tr.mu.Unlock()
		return d
	}
	if tracedFirst {
		traced, untraced = pass(true), pass(false)
	} else {
		untraced, traced = pass(false), pass(true)
	}
	tr.on.Store(true)
	docs := float64(len(q.req.Docs))
	return float64(traced-untraced) / float64(time.Microsecond) / docs, float64(n) / docs
}

// spanCost is the tracer's own cost of one span, timed on a scratch tracer.
func spanCost() time.Duration {
	const n = 100_000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.start("calibration"))
	}
	return time.Since(start) / n
}

// allocPass measures heap traffic per call in-process, untraced: bytes (or
// allocations) between two runtime.MemStats reads around one pass over the
// round.
func allocPass(ctx context.Context, st *tracedStack, reqs []tracedRequest, sls []*siteLayers, res *result) {
	measure := func(f func()) (kb, allocs float64) {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		f()
		runtime.ReadMemStats(&b)
		return float64(b.TotalAlloc-a.TotalAlloc) / 1024, float64(b.Mallocs - a.Mallocs)
	}
	eachDoc := func(f func(sl *siteLayers, p Page, pr docProbe)) func() {
		return func() {
			for _, q := range reqs {
				for i, p := range q.req.Docs {
					f(sls[p.Site], p, q.probes[i])
				}
			}
		}
	}
	docs := 0
	for _, q := range reqs {
		docs += len(q.req.Docs)
	}
	n := float64(docs)
	muxKB, _ := measure(func() {
		for _, q := range reqs {
			serveMem(st.shardMux[0], q.route)
		}
	})
	scanKB, _ := measure(eachDoc(func(_ *siteLayers, p Page, _ docProbe) { htmltok.Scan(p.HTML) }))
	mapKB, _ := measure(eachDoc(func(sl *siteLayers, p Page, _ docProbe) { sl.mapper.Map(p.HTML) }))
	spanKB, _ := measure(eachDoc(func(sl *siteLayers, _ Page, pr docProbe) {
		if m, err := sl.prog.Run(pr.tword); err == nil {
			_, _ = m.All()
		}
	}))
	var rd bytes.Reader
	_, streamAllocs := measure(eachDoc(func(sl *siteLayers, _ Page, pr docProbe) {
		rd.Reset(pr.page)
		_ = sl.stream.ExtractReaderTo(ctx, &rd, discardRegion)
	}))
	res.add("serve.mux_kb", "KB", muxKB/float64(len(reqs)))
	res.add("htmltok.scan_kb", "KB", scanKB/n)
	res.add("symtab.map_kb", "KB", (mapKB-scanKB)/n)
	res.add("spanner.run_kb", "KB", spanKB/n)
	res.add("wrapper.stream_allocs", "count", streamAllocs/n)
}

// overheadEvery spaces the tracing-overhead passes: every fourth request
// is run once more untraced and once more traced.
const overheadEvery = 4

// runTraced times each layer's public calls in-process on the workload's
// inputs, walks the subtractive ladder (direct call, mux, loopback, router)
// for every request, and derives the per-layer metrics from the spans.
func runTraced(cfg config) (*result, error) {
	in, err := buildInputs(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	pl, err := trainAll()
	if err != nil {
		return nil, err
	}
	res := &result{report: runHeader(cfg), correct: true}
	ctx := context.Background()
	tr := newTracer()
	loadMS, err := coldLoads(tr, pl, in.usesTuples())
	if err != nil {
		return nil, err
	}

	tr.on.Store(false)
	st, err := newTracedStack(tr)
	if err != nil {
		return nil, err
	}
	defer st.close()
	client := newClient()
	defer client.CloseIdleConnections()
	keys, err := placeKeys([]string{st.shardSrv[0].URL, st.shardSrv[1].URL})
	if err != nil {
		return nil, err
	}
	var tkeys Keys
	for s := range tkeys {
		tkeys[s] = "records-" + keys[s]
	}
	if err := st.register(ctx, client, keys, tkeys, pl); err != nil {
		return nil, err
	}
	sls, fleet, err := buildLayers(pl, keys)
	if err != nil {
		return nil, err
	}
	routeKeys := keys
	if in.usesTuples() {
		routeKeys = tkeys
	}
	reqs := make([]tracedRequest, len(in.Requests))
	for i, r := range in.Requests {
		reqs[i] = tracedRequest{req: r, route: in.wire(r, routeKeys), extract: Wire{"POST", "/extract", "application/json", batchBody(r.Docs, keys)}}
		for _, p := range r.Docs {
			reqs[i].bytes += len(p.HTML)
			reqs[i].probes = append(reqs[i].probes, probeDoc(sls[p.Site], p.HTML))
		}
	}
	// Warm every path once, untraced: lazily built automaton states, pools
	// and connections.
	for _, q := range reqs {
		ladderRequest(ctx, st, client, in, sls, fleet, keys, q, 0)
		if !routeIsExtract(in.Workload) {
			hopProbe(ctx, tr, client, st, q)
		}
		layerRequest(ctx, tr, sls, fleet, keys, q, true)
	}

	// Ladder requests run back to back; a layer request (and every fourth
	// time a tracing-overhead pass) follows whenever the layer phase has
	// used less time than the ladder phase, so each gets about half.
	tr.on.Store(true)
	agg := &layerAgg{}
	var overheads []float64
	var spansPerDoc float64
	var ladderTime, layerTime time.Duration
	host0, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	n, layers, dropped := 0, 0, 0
	record := func(o outcome) {
		res.attempted++
		if o.failure != "" {
			res.failed++
			if !o.expected() {
				res.correct = false
				res.logf("# unexpected failure: %s", o.failure)
			}
		}
	}
	for round := 0; round == 0 || time.Since(start).Seconds() < cfg.seconds; round++ {
		for _, q := range reqs {
			n++
			t := time.Now()
			root := tr.beginRequest(n, "request")
			for r := 0; r < ladderReps; r++ {
				record(ladderRequest(ctx, st, client, in, sls, fleet, keys, q, n*ladderReps+r))
			}
			if !routeIsExtract(in.Workload) {
				record(hopProbe(ctx, tr, client, st, q))
			}
			tr.end(root)
			ladderTime += time.Since(t)
			agg.addLadder(in.Workload, q, tr.current())
			if !tr.keepCurrent() {
				dropped++
			}
			if layerTime > ladderTime {
				continue
			}
			layers++
			t = time.Now()
			root = tr.beginRequest(n, "layers")
			layerRequest(ctx, tr, sls, fleet, keys, q, layers%2 == 0)
			tr.end(root)
			agg.addLayers(q, tr.current())
			if !tr.keepCurrent() {
				dropped++
			}
			if layers%overheadEvery == 0 {
				us, spans := tracingOverhead(ctx, tr, sls, q, layers%(2*overheadEvery) == 0)
				overheads = append(overheads, us)
				spansPerDoc = spans
			}
			layerTime += time.Since(t)
		}
	}
	elapsed := time.Since(start)
	host1, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	res.logf("# steal share during the traced phase: %.2f%%", 100*stealShare(host0, host1))

	allocPass(ctx, st, reqs, sls, res)
	agg.report(res, in.Workload)
	res.add("wrapper.load_ms", "ms", loadMS)
	res.add("trace.overhead_us", "us", median(overheads))
	cost := us(spanCost())
	res.logf("# tracing overhead: %.2f µs per doc measured (traced − untraced, median of %d pairs); %.1f spans per doc × %.3f µs per span = %.2f µs expected",
		median(overheads), len(overheads), spansPerDoc, cost, spansPerDoc*cost)

	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.writeFile(path); err != nil {
		return nil, err
	}
	res.logf("# traced phase: %.2fs, %d ladder requests, %d layer requests", elapsed.Seconds(), n, layers)
	res.logf("# spans: %d written to %s; spans of %d later requests counted but not kept", len(tr.spans), path, dropped)
	res.logf("# operations: attempted=%d failed=%d", res.attempted, res.failed)
	return res, nil
}
