package wrapper

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"resilex/internal/extract"
	"resilex/internal/machine"
)

// recordsPayload persists a hand-written record-shaped tuple wrapper: one
// (name cell, price cell) pair per table row, the gap between the pivots
// being exactly the closing tag of the first cell.
func recordsPayload(t *testing.T) []byte {
	t.Helper()
	data, err := json.Marshal(tuplePersisted{
		Version: 1,
		Kind:    "tuple",
		Expr:    ".* <TD> /TD <TD> .*",
		Sigma:   []string{"TABLE", "/TABLE", "TR", "/TR", "TD", "/TD", "H1", "/H1", "P", "/P"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

const recordsPage = `<h1>Parts List</h1>
<table>
<tr><td>bolt M4</td><td>$0.10</td></tr>
<tr><td>nut M4</td><td>$0.08</td></tr>
<tr><td>washer M4</td><td>$0.02</td></tr>
</table>`

func TestExtractAllRecords(t *testing.T) {
	w, err := LoadTuple(recordsPayload(t), machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	records, err := w.ExtractAll(recordsPage)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("records = %d, want 3", len(records))
	}
	wantNames := []string{"bolt M4", "nut M4", "washer M4"}
	for i, rec := range records {
		if len(rec) != 2 {
			t.Fatalf("record %d has %d slots", i, len(rec))
		}
		if rec[0].Span.Start >= rec[1].Span.Start {
			t.Errorf("record %d slots out of order", i)
		}
		// The name cell's start tag immediately precedes the wanted text.
		rest := recordsPage[rec[0].Span.End:]
		if got := rest[:len(wantNames[i])]; got != wantNames[i] {
			t.Errorf("record %d name = %q, want %q", i, got, wantNames[i])
		}
	}
	// Records come out in document order.
	for i := 1; i < len(records); i++ {
		if records[i-1][0].Span.Start >= records[i][0].Span.Start {
			t.Error("records not in document order")
		}
	}
	// A page without records is empty, not an error.
	empty, err := w.ExtractAll(`<h1>nothing here</h1>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatalf("empty page produced %d records", len(empty))
	}
}

func TestExtractAllAgreesWithExtract(t *testing.T) {
	// On an unambiguous single-record page, ExtractAll returns exactly the
	// vector Extract does.
	w, err := TrainTuple([]Sample{
		{HTML: tupleSample1},
		{HTML: tupleSample2},
	}, Config{KeepText: true})
	if err != nil {
		t.Fatal(err)
	}
	single, err := w.Extract(tupleLive)
	if err != nil {
		t.Fatal(err)
	}
	all, err := w.ExtractAll(tupleLive)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("ExtractAll found %d records on an unambiguous page", len(all))
	}
	for j := range single {
		if single[j] != all[0][j] {
			t.Errorf("slot %d: Extract %+v vs ExtractAll %+v", j, single[j], all[0][j])
		}
	}
}

func TestExtractAllContextCancel(t *testing.T) {
	w, err := LoadTuple(recordsPayload(t), machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.ExtractAllContext(ctx, recordsPage); !errors.Is(err, machine.ErrDeadline) {
		t.Fatalf("cancelled ExtractAll: %v", err)
	}
}

// TestExtractContextCancel: the strict single-record path honors its
// context as ExtractAll does, and with a live context a multi-record page
// fails in the ambiguity class.
func TestExtractContextCancel(t *testing.T) {
	w, err := LoadTuple(recordsPayload(t), machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.ExtractContext(ctx, recordsPage); !errors.Is(err, machine.ErrDeadline) {
		t.Fatalf("cancelled Extract: %v", err)
	}
	if _, err := w.ExtractContext(context.Background(), recordsPage); !errors.Is(err, extract.ErrAmbiguous) {
		t.Fatalf("multi-record page: %v, want ErrAmbiguous", err)
	}
}

func TestLoadTupleCachedAgreesWithLoadTuple(t *testing.T) {
	data := recordsPayload(t)
	plain, err := LoadTuple(data, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := extract.NewDiskCache(t.TempDir(), -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tc := extract.NewTieredCache(extract.NewCache(8, nil), disk)

	cached, err := LoadTupleCached(data, machine.Options{}, tc)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Arity() != plain.Arity() {
		t.Fatalf("arity %d vs %d", cached.Arity(), plain.Arity())
	}
	r1, err1 := plain.ExtractAll(recordsPage)
	r2, err2 := cached.ExtractAll(recordsPage)
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v, %v", err1, err2)
	}
	if len(r1) != len(r2) {
		t.Fatalf("record counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		for j := range r1[i] {
			if r1[i][j] != r2[i][j] {
				t.Errorf("record %d slot %d differs", i, j)
			}
		}
	}
	// The compile was written through to disk; a second load shares the
	// cached tuple.
	if disk.Len() != 1 {
		t.Fatalf("disk entries = %d, want 1", disk.Len())
	}
	again, err := LoadTupleCachedCtx(context.Background(), data, machine.Options{}, tc)
	if err != nil {
		t.Fatal(err)
	}
	if again.Tuple() != cached.Tuple() {
		t.Error("second cached load compiled a fresh tuple")
	}
	// A nil cache degrades to LoadTuple.
	if _, err := LoadTupleCached(data, machine.Options{}, nil); err != nil {
		t.Fatalf("nil-cache load: %v", err)
	}
}

func TestLoadTupleCachedErrorClassification(t *testing.T) {
	tc := extract.NewTieredCache(extract.NewCache(2, nil), nil)
	if _, err := LoadTupleCached([]byte("{"), machine.Options{}, tc); !errors.Is(err, ErrMalformedInput) {
		t.Errorf("bad JSON: %v", err)
	}
	// A single-pivot payload is not a tuple wrapper.
	plain, err := Train([]Sample{{HTML: `<form><input data-target></form>`}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pd, err := plain.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTupleCached(pd, machine.Options{}, tc); !errors.Is(err, ErrMalformedInput) {
		t.Errorf("plain payload: %v", err)
	}
	// Budget exhaustion during the compile keeps its sentinel.
	if _, err := LoadTupleCached(recordsPayload(t), machine.Options{MaxStates: 1}, tc); !errors.Is(err, machine.ErrBudget) {
		t.Errorf("budget: %v", err)
	}
}

func TestTupleFleet(t *testing.T) {
	f := NewTupleFleet()
	w, err := LoadTuple(recordsPayload(t), machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f.Add("parts", w)
	f.Add("other", w)
	if f.Len() != 2 {
		t.Fatalf("len = %d", f.Len())
	}
	if f.Get("parts") != w {
		t.Error("Get missed a registered wrapper")
	}
	if f.Get("absent") != nil {
		t.Error("Get invented a wrapper")
	}
	keys := f.Keys()
	if len(keys) != 2 || keys[0] != "other" || keys[1] != "parts" {
		t.Errorf("keys = %v", keys)
	}
	f.Remove("other")
	if f.Len() != 1 || f.Get("other") != nil {
		t.Error("Remove left the wrapper behind")
	}
}
