package main

import (
	"encoding/json"
	"fmt"
	"net/url"

	"resilex/internal/cluster"
	"resilex/internal/machine"
)

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
var workloadNames = []string{"single-small", "stream-large", "batch-routed", "records"}

// wrapperOptions is the compile budget the in-process layer calls use; the
// servers run with their own default, which is the same.
var wrapperOptions = machine.Options{}

// Request is one logical operation of a workload: the pages it carries and
// whether the router is expected to refuse it.
type Request struct {
	Docs []Page
	// CrossShard marks a batch whose keys have different primary shards.
	// The router refuses such batches (400 "batch spans shards"); they are
	// the workload's one named, expected failure.
	CrossShard bool
}

// Inputs is one round of a workload: every run repeats whole rounds, so the
// share of expected failures is the same in every run.
type Inputs struct {
	Workload string
	Routed   bool // served by a router in front of two shards
	Requests []Request
}

// Docs counts the documents of one round.
func (in *Inputs) Docs() int {
	n := 0
	for _, r := range in.Requests {
		n += len(r.Docs)
	}
	return n
}

// Round sizes. Every round holds the same mix of sites, layouts and sizes
// whatever the seed; the seed draws the pages' words, attributes and
// order. So the seed changes the bytes but not the cost of a round.
const (
	smallPerShape   = 2 // single-small: pages per (site, layout), one doc per request
	largePageBytes  = 1300 << 10
	batchesPerRound = 8  // batch-routed: the last batch of a round is cross-shard
	docsPerBatch    = 64 // documents per batch, half of them ~52 KB
	mediumPageBytes = 52 << 10
	recordsPerRound = 16 // records: one table page per request, two per site
	minRecordRows   = 200
	maxRecordRows   = 400
)

// buildInputs generates a workload's round from the seed alone.
func buildInputs(workload string, seed int64) (*Inputs, error) {
	g := NewGenerator(seed)
	in := &Inputs{Workload: workload}
	one := func(p Page) { in.Requests = append(in.Requests, Request{Docs: []Page{p}}) }
	switch workload {
	case "single-small":
		const shapes = numSites * 3
		for _, i := range g.Perm(shapes * smallPerShape) {
			one(g.Small(i%shapes/3, i%3))
		}
	case "stream-large":
		for _, site := range g.Perm(numSites) {
			one(g.Padded(site, largePageBytes))
		}
	case "batch-routed":
		in.Routed = true
		// Sites 0-3 are placed on one shard and 4-7 on the other (see
		// placeKeys). Batches alternate between the two site groups, each
		// site taking an eighth of a batch's small and of its medium
		// pages; the round's last batch slips one page of the other group
		// into a group-0 batch.
		for b := 0; b < batchesPerRound; b++ {
			group := b % 2
			cross := b == batchesPerRound-1
			if cross {
				group = 0
			}
			docs := make([]Page, 0, docsPerBatch)
			for _, d := range g.Perm(docsPerBatch) {
				site := group*numSites/2 + d/2%(numSites/2)
				if d%2 == 0 {
					docs = append(docs, g.Small(site, g.Intn(3)))
				} else {
					docs = append(docs, g.Padded(site, mediumPageBytes))
				}
			}
			if cross {
				at := 1 + g.Intn(docsPerBatch-1)
				docs[at] = g.Small(numSites/2+g.Intn(numSites/2), g.Intn(3))
			}
			in.Requests = append(in.Requests, Request{Docs: docs, CrossShard: cross})
		}
	case "records":
		// Row counts are spread evenly over [minRecordRows, maxRecordRows].
		for i, j := range g.Perm(recordsPerRound) {
			rows := minRecordRows + j*(maxRecordRows-minRecordRows)/(recordsPerRound-1)
			one(g.Records(i%numSites, rows))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	return in, nil
}

// Keys maps each site to the wrapper key it is registered under.
type Keys [numSites]string

// plainKeys names the sites site0…site7.
func plainKeys() Keys {
	var k Keys
	for s := range k {
		k[s] = fmt.Sprintf("site%d", s)
	}
	return k
}

// placeKeys names the sites so that sites 0-3 have shards[0] as their
// primary owner and sites 4-7 shards[1], on the ring the router builds over
// the same shard URLs. Ports change from run to run, so the names do too,
// but the split, and with it which batches the router refuses, does not.
func placeKeys(shards []string) (Keys, error) {
	if len(shards) != 2 {
		return Keys{}, fmt.Errorf("placing keys needs 2 shards, got %d", len(shards))
	}
	ring := cluster.NewRing(0)
	ring.Add(shards...)
	var k Keys
	for s := range k {
		want := shards[s/(numSites/2)]
		for n := 0; ; n++ {
			key := fmt.Sprintf("site%d-%d", s, n)
			if ring.Owners(key, 1)[0] == want {
				k[s] = key
				break
			}
			if n > 10000 {
				return Keys{}, fmt.Errorf("no key for site %d lands on %s", s, want)
			}
		}
	}
	return k, nil
}

// Wire is a request as sent: method, path, media type and body.
type Wire struct {
	Method, Path, ContentType string
	Body                      []byte
}

type batchDoc struct {
	Key  string `json:"key"`
	HTML string `json:"html"`
}

// batchBody encodes docs as a POST /extract body.
func batchBody(docs []Page, keys Keys) []byte {
	req := struct {
		Docs []batchDoc `json:"docs"`
	}{Docs: make([]batchDoc, len(docs))}
	for i, p := range docs {
		req.Docs[i] = batchDoc{Key: keys[p.Site], HTML: p.HTML}
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // strings only; cannot fail
	}
	return body
}

// wire encodes a request for its workload's route.
func (in *Inputs) wire(r Request, keys Keys) Wire {
	p := r.Docs[0]
	switch in.Workload {
	case "stream-large":
		return Wire{"POST", "/extract/stream/" + url.PathEscape(keys[p.Site]), "text/html", []byte(p.HTML)}
	case "records":
		return Wire{"POST", "/extract/tuples/" + url.PathEscape(keys[p.Site]), "text/html", []byte(p.HTML)}
	default:
		return Wire{"POST", "/extract", "application/json", batchBody(r.Docs, keys)}
	}
}

// usesTuples reports whether the workload registers record wrappers.
func (in *Inputs) usesTuples() bool { return in.Workload == "records" }
