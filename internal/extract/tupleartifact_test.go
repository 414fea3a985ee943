package extract

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"resilex/internal/codec"
	"resilex/internal/machine"
	"resilex/internal/rx"
)

func compileTupleFixture(t *testing.T) *CompiledTuple {
	t.Helper()
	c, err := CompileTupleArtifact("q* <p> q* <r> .*", []string{"p", "q", "r"}, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTupleArtifactRoundTrip(t *testing.T) {
	c := compileTupleFixture(t)
	blob, err := EncodeTupleArtifact(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTupleArtifact(blob, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != c.Src || !reflect.DeepEqual(got.SigmaNames, c.SigmaNames) {
		t.Fatalf("persisted form: got (%q, %v), want (%q, %v)", got.Src, got.SigmaNames, c.Src, c.SigmaNames)
	}
	if got.Tuple.Arity() != c.Tuple.Arity() || !reflect.DeepEqual(got.Tuple.Marks(), c.Tuple.Marks()) {
		t.Fatal("decoded tuple pivots disagree")
	}
	for j := 0; j <= c.Tuple.Arity(); j++ {
		if !machine.StructurallyEqual(got.Tuple.Segment(j).DFA(), c.Tuple.Segment(j).DFA()) {
			t.Fatalf("segment %d DFA not preserved", j)
		}
	}
	// The decoded tuple extracts identically.
	w, err := rx.ParseWord("q p q q r q", got.Tab)
	if err != nil {
		t.Fatal(err)
	}
	if gv, cv := oracleVectors(got.Tuple, w), oracleVectors(c.Tuple, w); len(cv) != 1 || !reflect.DeepEqual(gv, cv) {
		t.Fatalf("decoded vectors = %v, fresh = %v", gv, cv)
	}
	// Same content address both sides.
	k1, err := KeyTuple(c.Src, c.SigmaNames)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := KeyTuple(got.Src, got.SigmaNames)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("decoded artifact re-keys to a different content address")
	}
}

// TestKeyTupleDomainSeparation: an expression valid under both the single-
// pivot and the tuple parser must get different content addresses — the
// caches never alias a Compiled and a CompiledTuple.
func TestKeyTupleDomainSeparation(t *testing.T) {
	src, names := "q* <p> q*", []string{"p", "q"}
	k1, err := Key(src, names)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := KeyTuple(src, names)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatal("single-pivot and tuple keys collide")
	}
	// Key order-independence carries over.
	k3, err := KeyTuple(src, []string{"q", "p", "q"})
	if err != nil {
		t.Fatal(err)
	}
	if k2 != k3 {
		t.Fatal("KeyTuple depends on alphabet listing order")
	}
}

// TestArtifactKindMismatch: each decoder refuses the other kind's frame
// with a malformed-input error that names the right entry point.
func TestArtifactKindMismatch(t *testing.T) {
	single, err := CompileArtifact("q* <p> .*", []string{"p", "q"}, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sblob, err := EncodeArtifact(single)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTupleArtifact(sblob, machine.Options{}); !errors.Is(err, codec.ErrMalformedInput) {
		t.Fatalf("tuple-decoding a single-pivot frame: err = %v, want ErrMalformedInput", err)
	}

	tblob, err := EncodeTupleArtifact(compileTupleFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	_, err = DecodeArtifact(tblob, machine.Options{})
	if !errors.Is(err, codec.ErrMalformedInput) {
		t.Fatalf("single-decoding a tuple frame: err = %v, want ErrMalformedInput", err)
	}
	if !strings.Contains(err.Error(), "DecodeTupleArtifact") {
		t.Fatalf("kind-mismatch error should direct to DecodeTupleArtifact, got: %v", err)
	}
}

// TestDecodeArtifactLegacyV1 is the mixed-version round trip: a version-1
// frame (kindless payload, as older binaries wrote) must still decode to
// the same machine the current encoder round-trips.
func TestDecodeArtifactLegacyV1(t *testing.T) {
	c, err := CompileArtifact("q* <p> .*", []string{"p", "q"}, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Replicate the v1 payload layout byte for byte: no kind discriminator.
	var w codec.Writer
	w.String(c.Src)
	w.Uint(uint64(len(c.SigmaNames)))
	for _, n := range c.SigmaNames {
		w.String(n)
	}
	w.Bytes2(c.Tab.Encode())
	w.Int(int64(c.Expr.P()))
	sigma := c.Expr.Sigma().Symbols()
	ids := make([]int, len(sigma))
	for i, s := range sigma {
		ids[i] = int(s)
	}
	w.Ints(ids)
	w.Bytes2(c.Expr.Left().DFA().Encode())
	w.Bytes2(c.Expr.Right().DFA().Encode())
	legacy := codec.Seal("RXAR", 1, w.Bytes())

	got, err := DecodeArtifact(legacy, machine.Options{})
	if err != nil {
		t.Fatalf("decoding a v1 frame: %v", err)
	}
	if got.Src != c.Src || got.Expr.P() != c.Expr.P() ||
		!machine.StructurallyEqual(got.Expr.Left().DFA(), c.Expr.Left().DFA()) ||
		!machine.StructurallyEqual(got.Expr.Right().DFA(), c.Expr.Right().DFA()) {
		t.Fatal("v1 decode disagrees with the artifact it was written from")
	}

	// The current encoder writes v2; both versions of the same artifact
	// decode to equivalent machines.
	v2blob, err := EncodeArtifact(c)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := DecodeArtifact(v2blob, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !machine.StructurallyEqual(got.Expr.Left().DFA(), got2.Expr.Left().DFA()) {
		t.Fatal("v1 and v2 decodes disagree")
	}

	// A v1-style *tuple* frame never existed; sealing tuple bytes as v1
	// must not decode.
	tblob, err := EncodeTupleArtifact(compileTupleFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTupleArtifact(append([]byte(nil), tblob[:4]...), machine.Options{}); err == nil {
		t.Fatal("truncated tuple frame decoded")
	}
}

func TestDecodeTupleArtifactRejectsCorruption(t *testing.T) {
	blob, err := EncodeTupleArtifact(compileTupleFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range blob {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x20
		if _, err := DecodeTupleArtifact(mut, machine.Options{}); !errors.Is(err, codec.ErrMalformedInput) {
			t.Fatalf("bit flip at %d: err = %v, want ErrMalformedInput", i, err)
		}
	}
	for cut := 0; cut < len(blob); cut += 7 {
		if _, err := DecodeTupleArtifact(blob[:cut], machine.Options{}); err == nil {
			t.Fatalf("truncation to %d decoded", cut)
		}
	}
}

func TestEncodeTupleArtifactRequiresSource(t *testing.T) {
	if _, err := EncodeTupleArtifact(nil); err == nil {
		t.Fatal("nil artifact encoded")
	}
	c := compileTupleFixture(t)
	if _, err := EncodeTupleArtifact(&CompiledTuple{Tab: c.Tab, Tuple: c.Tuple}); err == nil {
		t.Fatal("artifact without source encoded")
	}
}
