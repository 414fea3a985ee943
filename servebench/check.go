package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// region is the wire form of one extracted region, shared by the batch,
// stream and tuple responses.
type region struct {
	OK     bool   `json:"ok"`
	Error  string `json:"error"`
	Start  int    `json:"start"`
	End    int    `json:"end"`
	Source string `json:"source"`
}

// crossShardFault names the one expected failure: the router refuses a
// batch whose keys have different primary shards.
const crossShardFault = "cross-shard batch refused: batch spans shards"

// outcome is the verdict on one response.
type outcome struct {
	docsOK  int    // documents whose answer matched the truth
	failure string // empty when the whole request was answered correctly
}

// expected reports whether the failure is the named cross-shard fault.
func (o outcome) expected() bool { return o.failure == crossShardFault }

// check compares a response with the generator's truth.
func check(workload string, r Request, status int, body []byte) outcome {
	if r.CrossShard && status == http.StatusBadRequest && strings.Contains(string(body), "batch spans shards") {
		return outcome{failure: crossShardFault}
	}
	if status != http.StatusOK {
		return outcome{failure: fmt.Sprintf("status %d: %.200s", status, body)}
	}
	switch workload {
	case "stream-large":
		var got region
		if err := json.Unmarshal(body, &got); err != nil {
			return outcome{failure: "undecodable response: " + err.Error()}
		}
		if msg := matchTarget(r.Docs[0], got); msg != "" {
			return outcome{failure: msg}
		}
		return outcome{docsOK: 1}
	case "records":
		var got struct {
			Arity   int        `json:"arity"`
			Count   int        `json:"count"`
			Records [][]region `json:"records"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return outcome{failure: "undecodable response: " + err.Error()}
		}
		if msg := matchRecords(r.Docs[0], got.Arity, got.Count, got.Records); msg != "" {
			return outcome{failure: msg}
		}
		return outcome{docsOK: 1}
	default:
		var got struct {
			Results []region `json:"results"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return outcome{failure: "undecodable response: " + err.Error()}
		}
		if len(got.Results) != len(r.Docs) {
			return outcome{failure: fmt.Sprintf("%d results for %d docs", len(got.Results), len(r.Docs))}
		}
		o := outcome{}
		for i, p := range r.Docs {
			if msg := matchTarget(p, got.Results[i]); msg != "" {
				if o.failure == "" {
					o.failure = fmt.Sprintf("doc %d: %s", i, msg)
				}
				continue
			}
			o.docsOK++
		}
		return o
	}
}

// matchTarget checks one single-pivot answer against the target's span.
func matchTarget(p Page, got region) string {
	switch {
	case !got.OK:
		return fmt.Sprintf("site %d %s page (%d B): no extraction: %s", p.Site, p.Layout, len(p.HTML), got.Error)
	case got.Start != p.Target.Start || got.End != p.Target.End:
		return fmt.Sprintf("site %d %s page: extracted [%d,%d), truth [%d,%d)",
			p.Site, p.Layout, got.Start, got.End, p.Target.Start, p.Target.End)
	case got.Source != p.HTML[p.Target.Start:p.Target.End]:
		return fmt.Sprintf("site %d %s page: source %q differs from the page", p.Site, p.Layout, got.Source)
	}
	return ""
}

// matchRecords checks a record answer: one record per generated row, each
// slot on the row's cell.
func matchRecords(p Page, arity, count int, recs [][]region) string {
	if arity != recordArity || count != len(p.Cells) || len(recs) != len(p.Cells) {
		return fmt.Sprintf("site %d: %d records of arity %d (count %d), truth %d of arity %d",
			p.Site, len(recs), arity, count, len(p.Cells), recordArity)
	}
	for i, rec := range recs {
		if len(rec) != recordArity {
			return fmt.Sprintf("site %d record %d: %d slots", p.Site, i, len(rec))
		}
		for j, c := range rec {
			want := p.Cells[i][j]
			if c.Start != want.Start || c.End != want.End || c.Source != p.HTML[want.Start:want.End] {
				return fmt.Sprintf("site %d record %d slot %d: [%d,%d) %q, truth [%d,%d)",
					p.Site, i, j, c.Start, c.End, c.Source, want.Start, want.End)
			}
		}
	}
	return ""
}
