package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"resilex/internal/htmltok"
	"resilex/internal/symtab"
	"resilex/internal/wrapper"
)

// numSites is the number of synthetic shop sites; each has its own trained
// single-pivot wrapper and its own record (tuple) wrapper.
const numSites = 8

// recordArity is k for the record workload: three cells per table row.
const recordArity = 3

// Span is a half-open byte range of a page.
type Span struct{ Start, End int }

// Page is one generated document plus the truth the generator recorded while
// writing it: the byte span of the target <input> tag, and for every record
// row the byte spans of its <td> start tags. The truth comes from the
// generator alone, never from the program under test.
type Page struct {
	Site   int
	Layout string // top, bottom, novel
	HTML   string
	Target Span
	Cells  [][recordArity]Span
}

// pageWriter builds a page and records truth offsets as it goes.
type pageWriter struct {
	rng  *rand.Rand
	b    strings.Builder
	page Page
}

func (w *pageWriter) s(parts ...string) {
	for _, p := range parts {
		w.b.WriteString(p)
	}
}

func (w *pageWriter) f(format string, args ...any) { fmt.Fprintf(&w.b, format, args...) }

var vocabulary = []string{
	"bolt", "nut", "washer", "gear", "spring", "valve", "pump", "relay",
	"socket", "bearing", "gasket", "hinge", "clamp", "flange", "rivet", "shaft",
	"sensor", "switch", "cable", "filter", "seal", "bracket", "coupler", "pin",
}

func (w *pageWriter) word() string { return vocabulary[w.rng.Intn(len(vocabulary))] }

func title(s string) string { return strings.ToUpper(s[:1]) + s[1:] }

func (w *pageWriter) words(n int) string {
	ws := make([]string, n)
	for i := range ws {
		ws[i] = w.word()
	}
	return strings.Join(ws, " ")
}

// header is the site's heading tag: even sites use H1, odd sites H2, so the
// sites' wrappers differ in alphabet as well as in expression.
func header(site int) string {
	if site%2 == 0 {
		return "h1"
	}
	return "h2"
}

// target writes the target text input and records its span.
func (w *pageWriter) target(marker bool) {
	start := w.b.Len()
	w.f(`<input type="text" size="%d" name="%s"`, 10+w.rng.Intn(20), w.word())
	if marker {
		w.s(" ", wrapper.MarkerAttr)
	}
	w.s(" />")
	w.page.Target = Span{start, w.b.Len()}
	w.s("\n")
}

func (w *pageWriter) radios(n int) {
	for r := 0; r < n; r++ {
		w.f(`<input type="radio" name="attr" value="%d"> %s<br />`+"\n", r+1, w.word())
	}
}

// top writes the Figure 1 top layout: heading and a bare search form.
func (w *pageWriter) top(site int, marker bool) {
	h := header(site)
	w.page.Layout = "top"
	w.s("<P>\n")
	w.f("<%s>%s Supply, Inc.</%s>\n", h, title(w.word()), h)
	w.s("<P>\n")
	w.f(`<form method="post" action="%s.cgi">`+"\n", w.word())
	w.f(`<input type="image" align="left" src="%s.gif" />`+"\n", w.word())
	w.target(marker)
	w.s("<br />\n")
	w.radios(1 + site%3)
	w.s("</form>")
}

// bottom writes the Figure 1 bottom layout: the form inside a table after
// the heading and navigation rows. filler in-alphabet navigation rows and
// records k-cell record rows are inserted before the form row.
func (w *pageWriter) bottom(site int, marker bool, filler, records int) {
	h := header(site)
	w.page.Layout = "bottom"
	w.s("<table>\n")
	w.f(`<tr><th><img src="%s.gif"></th></tr>`+"\n", w.word())
	w.f("<tr><td><%s>%s Supply, Inc.</%s></td></tr>\n", h, title(w.word()), h)
	for i := 0; i < 1+site%2+filler; i++ {
		w.f(`<tr><td><a href="%s.html">%s</a></td></tr>`+"\n", w.word(), w.words(2))
	}
	for i := 0; i < records; i++ {
		w.s("<tr>")
		var row [recordArity]Span
		for c := range row {
			start := w.b.Len()
			w.s("<td>")
			row[c] = Span{start, start + len("<td>")}
			switch c {
			case 0:
				w.s(w.words(2))
			case 1:
				w.f("$%d.%02d", w.rng.Intn(100), w.rng.Intn(100))
			default:
				w.f("SKU-%05d", w.rng.Intn(100000))
			}
			w.s("</td>")
		}
		w.s("</tr>\n")
		w.page.Cells = append(w.page.Cells, row)
	}
	w.f(`<tr><td><form method="post" action="%s.cgi">`+"\n", w.word())
	w.f(`<input type="image" src="%s.gif" />`+"\n", w.word())
	w.target(marker)
	w.radios(1 + site%3)
	w.s("</form></td></tr>\n</table>")
}

// novel writes a layout neither training page shows: an extra navigation
// row, no image header and a single radio button. The maximized wrapper
// still extracts from it; that is the paper's resilience claim.
func (w *pageWriter) novel(site int) {
	h := header(site)
	w.page.Layout = "novel"
	w.s("<table>\n")
	w.f("<tr><td><%s>%s Supply, Inc.</%s></td></tr>\n", h, title(w.word()), h)
	for i := 0; i < 2+site%2; i++ {
		w.f(`<tr><td><a href="%s.html">%s</a></td></tr>`+"\n", w.word(), w.words(2))
	}
	w.f(`<tr><td><form method="post" action="%s.cgi">`+"\n", w.word())
	w.f(`<input type="image" src="%s.gif" />`+"\n", w.word())
	w.target(false)
	w.radios(1)
	w.s("</form></td></tr>\n</table>")
}

func (w *pageWriter) done(site int) Page {
	w.page.Site = site
	w.page.HTML = w.b.String()
	return w.page
}

// Generator draws pages from one seeded source. The same seed always gives
// byte-identical pages in the same order.
type Generator struct{ rng *rand.Rand }

// NewGenerator returns a generator seeded with seed.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

func (g *Generator) writer() *pageWriter { return &pageWriter{rng: g.rng} }

// Small returns a ~0.4 KB Figure 1 page of site in one of the three
// layouts: 0 top, 1 bottom, 2 novel.
func (g *Generator) Small(site, layout int) Page {
	w := g.writer()
	switch layout {
	case 0:
		w.top(site, false)
	case 1:
		w.bottom(site, false, 0, 0)
	default:
		w.novel(site)
	}
	return w.done(site)
}

// Padded returns a bottom-layout page of site grown with in-alphabet filler
// rows to about size bytes.
func (g *Generator) Padded(site, size int) Page {
	const rowBytes = 54 // mean length of a filler row
	w := g.writer()
	w.bottom(site, false, size/rowBytes, 0)
	return w.done(site)
}

// Records returns a bottom-layout page of site holding rows k-cell record
// rows.
func (g *Generator) Records(site, rows int) Page {
	w := g.writer()
	w.bottom(site, false, 0, rows)
	return w.done(site)
}

// Intn and Perm expose the generator's source for workload composition.
func (g *Generator) Intn(n int) int { return g.rng.Intn(n) }

func (g *Generator) Perm(n int) []int { return g.rng.Perm(n) }

// trainingPages returns the two marked training samples of a site: its top
// and bottom layouts. They come from a fixed per-site source, so the wrappers
// (and the server's compile work during set-up) are the same for every
// workload seed.
func trainingPages(site int) []wrapper.Sample {
	g := NewGenerator(int64(1000 + site))
	top := g.writer()
	top.top(site, true)
	bottom := g.writer()
	bottom.bottom(site, true, 0, 0)
	return []wrapper.Sample{
		{HTML: top.done(site).HTML, Target: wrapper.TargetMarker()},
		{HTML: bottom.done(site).HTML, Target: wrapper.TargetMarker()},
	}
}

// wrapperConfig is the tokenizer configuration of every benchmark wrapper:
// line breaks are layout noise, not structure.
var wrapperConfig = wrapper.Config{Skip: []string{"BR"}}

// Payloads are the persisted wrappers of one site, as PUT to the servers.
type Payloads struct {
	Single []byte // single-pivot wrapper trained on the site's top+bottom
	Tuple  []byte // k-ary record wrapper over the site's record alphabet

	// The record wrapper's expression and alphabet, for the in-process
	// spanner layer of the traced run.
	TupleExpr  string
	TupleSigma []string
}

// TrainSite trains the site's single-pivot wrapper from its marked layouts
// and writes the k-ary record wrapper: k adjacent <td> cells, with every
// tag of the site's record page in its alphabet.
func TrainSite(site int) (Payloads, error) {
	w, err := wrapper.Train(trainingPages(site), wrapperConfig)
	if err != nil {
		return Payloads{}, fmt.Errorf("training site %d: %w", site, err)
	}
	single, err := w.MarshalJSON()
	if err != nil {
		return Payloads{}, err
	}
	tab := symtab.NewTable()
	m := htmltok.NewMapper(tab)
	m.Skip = map[string]bool{"BR": true}
	doc := m.Map(NewGenerator(int64(2000+site)).Records(site, 1).HTML)
	var sigma []string
	for _, s := range doc.Alphabet().Symbols() {
		sigma = append(sigma, tab.Name(s))
	}
	sort.Strings(sigma)
	expr := ".* <TD>" + strings.Repeat(" /TD <TD>", recordArity-1) + " .*"
	tuple := fmt.Sprintf(`{"version":1,"kind":"tuple","expr":%q,"sigma":%s,"skip":["BR"]}`,
		expr, jsonStrings(sigma))
	return Payloads{Single: single, Tuple: []byte(tuple), TupleExpr: expr, TupleSigma: sigma}, nil
}

func jsonStrings(ss []string) string {
	q := make([]string, len(ss))
	for i, s := range ss {
		q[i] = fmt.Sprintf("%q", s)
	}
	return "[" + strings.Join(q, ",") + "]"
}
