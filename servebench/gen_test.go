package main

import (
	"strings"
	"testing"

	"resilex/internal/wrapper"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range workloadNames {
		a, err := buildInputs(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildInputs(name, 7)
		c, _ := buildInputs(name, 8)
		if !sameInputs(a, b) {
			t.Errorf("%s: seed 7 gave different inputs on two builds", name)
		}
		if sameInputs(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", name)
		}
	}
}

func sameInputs(a, b *Inputs) bool {
	if len(a.Requests) != len(b.Requests) {
		return false
	}
	for i := range a.Requests {
		ra, rb := a.Requests[i], b.Requests[i]
		if len(ra.Docs) != len(rb.Docs) || ra.CrossShard != rb.CrossShard {
			return false
		}
		for j := range ra.Docs {
			if ra.Docs[j].HTML != rb.Docs[j].HTML || ra.Docs[j].Site != rb.Docs[j].Site {
				return false
			}
		}
	}
	return true
}

func TestTruthOffsetsLandOnTags(t *testing.T) {
	for _, name := range workloadNames {
		in, err := buildInputs(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range in.Requests {
			for _, p := range r.Docs {
				tag := p.HTML[p.Target.Start:p.Target.End]
				if !strings.HasPrefix(tag, `<input type="text"`) || !strings.HasSuffix(tag, ">") {
					t.Fatalf("%s: target span %v is %q", name, p.Target, tag)
				}
				for _, row := range p.Cells {
					for _, c := range row {
						if p.HTML[c.Start:c.End] != "<td>" {
							t.Fatalf("%s: cell span %v is %q", name, c, p.HTML[c.Start:c.End])
						}
					}
				}
			}
		}
	}
}

// TestWrappersFindTheTruth checks in-process that every site's wrappers
// extract exactly the generator's truth from each page shape, so a failure
// in the served runs points at the serving path, not at the inputs.
func TestWrappersFindTheTruth(t *testing.T) {
	g := NewGenerator(11)
	for site := 0; site < numSites; site++ {
		pl, err := TrainSite(site)
		if err != nil {
			t.Fatal(err)
		}
		w, err := wrapper.Load(pl.Single, wrapperOptions)
		if err != nil {
			t.Fatal(err)
		}
		tw, err := wrapper.LoadTuple(pl.Tuple, wrapperOptions)
		if err != nil {
			t.Fatal(err)
		}
		pages := []Page{g.Small(site, 0), g.Small(site, 1), g.Small(site, 2),
			g.Padded(site, 20<<10), g.Records(site, 50)}
		for _, p := range pages {
			reg, err := w.Extract(p.HTML)
			if err != nil {
				t.Fatalf("site %d %s: %v", site, p.Layout, err)
			}
			if reg.Span.Start != p.Target.Start || reg.Span.End != p.Target.End {
				t.Fatalf("site %d %s: got %v, truth %v", site, p.Layout, reg.Span, p.Target)
			}
			recs, err := tw.ExtractAll(p.HTML)
			if err != nil {
				t.Fatalf("site %d %s records: %v", site, p.Layout, err)
			}
			if len(recs) != len(p.Cells) {
				t.Fatalf("site %d %s: %d records, truth %d", site, p.Layout, len(recs), len(p.Cells))
			}
			for i, rec := range recs {
				for j, reg := range rec {
					if reg.Span.Start != p.Cells[i][j].Start {
						t.Fatalf("site %d: record %d cell %d at %d, truth %d", site, i, j, reg.Span.Start, p.Cells[i][j].Start)
					}
				}
			}
		}
	}
}
