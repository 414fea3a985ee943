// Command rexc is the extraction-expression compiler and checker: it
// decides ambiguity and maximality, explains failures with witnesses,
// maximizes expressions with the paper's algorithms, and runs expressions
// over token strings.
//
// Usage:
//
//	rexc check    [-sigma "a b c"] 'q p <p> .*'
//	rexc learn    'P FORM <INPUT> /FORM' 'DIV FORM <INPUT> /FORM' …
//	rexc maximize [-sigma "a b c"] [-algo auto|left|right|pivot|pivot-right] 'q p <p> .*'
//	rexc pivots   [-sigma "a b c"] 'EXPR'
//	rexc extract  [-sigma "a b c"] 'EXPR' 'tok tok tok ...'
//	rexc simplify 'REGEX'
//	rexc tuple    'E0 <p1> E1 <p2> E2' 'tok tok ...'
//	rexc dot      'EXPR'                # Graphviz for both component DFAs
//
// Expressions use the concrete syntax of the resilex library: whitespace-
// separated token identifiers, postfix * + ?, infix | & -, '.' for any
// symbol, [a b] and [^ a] classes, #eps, #empty, and a single marked
// symbol <p>.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"resilex"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	sigmaFlag := fs.String("sigma", "", "extra alphabet symbols (space separated) beyond those mentioned")
	budget := fs.Int("budget", 0, "state budget for automaton constructions (0 = default)")
	algo := fs.String("algo", "auto", "maximization algorithm: auto, left, right, pivot or pivot-right")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	rest := fs.Args()

	tab := resilex.NewTable()
	sigma := resilex.Alphabet{}
	if *sigmaFlag != "" {
		syms, err := resilex.ParseTokens(*sigmaFlag, tab)
		if err != nil {
			fatal(err)
		}
		sigma = resilex.NewAlphabet(syms...)
	}
	opt := resilex.Options{MaxStates: *budget}

	parse := func(src string) resilex.Expr {
		x, err := resilex.ParseExpr(src, tab, sigma, opt)
		if err != nil {
			fatal(err)
		}
		return x
	}

	switch cmd {
	case "check":
		need(rest, 1)
		check(parse(rest[0]), tab)
	case "maximize":
		need(rest, 1)
		maximize(parse(rest[0]), tab, *algo)
	case "pivots":
		need(rest, 1)
		pivots(parse(rest[0]), tab)
	case "extract":
		need(rest, 2)
		// Tokenize the document first so its tags join Σ — otherwise a page
		// tag the expression never mentions would make it unparseable.
		doc, err := resilex.ParseTokens(rest[1], tab)
		if err != nil {
			fatal(err)
		}
		sigma = sigma.Union(resilex.NewAlphabet(doc...))
		runExtract(parse(rest[0]), doc, tab)
	case "simplify":
		need(rest, 1)
		n, err := resilex.ParseRegex(rest[0], tab, sigma)
		if err != nil {
			fatal(err)
		}
		s := resilex.SimplifyRegex(n)
		fmt.Printf("%s\n(%d → %d AST nodes)\n", resilex.PrintRegex(s, tab), n.Size(), s.Size())
	case "learn":
		if len(rest) == 0 {
			usage()
			os.Exit(2)
		}
		runLearn(rest, tab, sigma, opt)
	case "dot":
		need(rest, 1)
		x := parse(rest[0])
		fmt.Print(x.Left().DFA().DOT(tab, "E1"))
		fmt.Print(x.Right().DFA().DOT(tab, "E2"))
	case "tuple":
		need(rest, 2)
		doc, err := resilex.ParseTokens(rest[1], tab)
		if err != nil {
			fatal(err)
		}
		sigma = sigma.Union(resilex.NewAlphabet(doc...))
		tp, err := resilex.ParseTuple(rest[0], tab, sigma, opt)
		if err != nil {
			fatal(err)
		}
		runTuple(tp, doc, tab)
	default:
		usage()
		os.Exit(2)
	}
}

// runLearn induces and maximizes an expression from marked example
// documents, each given as a token string with the target in angle
// brackets: rexc learn 'P FORM INPUT <INPUT> /FORM' 'DIV FORM INPUT <INPUT> /FORM'.
func runLearn(docs []string, tab *resilex.Table, sigma resilex.Alphabet, opt resilex.Options) {
	var examples []resilex.Example
	for i, src := range docs {
		doc, target, err := parseMarkedDoc(src, tab)
		if err != nil {
			fatal(fmt.Errorf("example %d: %w", i, err))
		}
		examples = append(examples, resilex.Example{Doc: doc, Target: target})
		sigma = sigma.Union(resilex.NewAlphabet(doc...))
	}
	induced, err := resilex.Induce(examples, sigma, opt)
	if err != nil {
		fatal(err)
	}
	fmt.Println("induced:  ", induced.String(tab))
	maxed, err := resilex.Maximize(induced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rexc: maximization not applicable (%v); induced expression is final\n", err)
		return
	}
	fmt.Println("maximized:", maxed.String(tab))
}

// parseMarkedDoc reads a token string with exactly one <token> mark.
func parseMarkedDoc(src string, tab *resilex.Table) ([]resilex.Symbol, int, error) {
	fields := strings.Fields(src)
	var doc []resilex.Symbol
	target := -1
	for _, f := range fields {
		marked := false
		if strings.HasPrefix(f, "<") && strings.HasSuffix(f, ">") && len(f) > 2 {
			f = f[1 : len(f)-1]
			marked = true
		}
		syms, err := resilex.ParseTokens(f, tab)
		if err != nil || len(syms) != 1 {
			return nil, 0, fmt.Errorf("bad token %q", f)
		}
		if marked {
			if target >= 0 {
				return nil, 0, fmt.Errorf("more than one marked token")
			}
			target = len(doc)
		}
		doc = append(doc, syms[0])
	}
	if target < 0 {
		return nil, 0, fmt.Errorf("no marked token (wrap the target in <...>)")
	}
	return doc, target, nil
}

func runTuple(tp *resilex.Tuple, doc []resilex.Symbol, tab *resilex.Table) {
	unamb, err := tp.Unambiguous()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("unambiguous: %v\n", unamb)
	v, ok, err := resilex.ExtractTuple(context.Background(), tp, doc)
	if err != nil {
		fatal(err)
	}
	if !ok {
		fmt.Println("no match")
		os.Exit(1)
	}
	fmt.Printf("extracted vector %v\n", v)
	for _, pos := range v {
		fmt.Printf("  %s\n", markAt(doc, pos, tab))
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: rexc {check|learn|maximize|pivots|extract|simplify|tuple|dot} [flags] EXPR [DOC]")
}

func need(rest []string, n int) {
	if len(rest) != n {
		usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rexc:", err)
	os.Exit(1)
}

func check(x resilex.Expr, tab *resilex.Table) {
	fmt.Printf("expression: %s\n", x.String(tab))
	fmt.Printf("sigma:      %s\n", x.Sigma().Format(tab))
	d, err := x.Explain()
	if err != nil {
		fatal(err)
	}
	fmt.Print(d.Format(tab))
}

func maximize(x resilex.Expr, tab *resilex.Table, algo string) {
	var out resilex.Expr
	var err error
	switch algo {
	case "auto":
		out, err = resilex.Maximize(x)
	case "left":
		out, err = resilex.LeftFilter(x)
	case "right":
		out, err = resilex.RightFilter(x)
	case "pivot":
		out, err = resilex.Pivot(x)
	case "pivot-right":
		out, err = resilex.PivotRight(x)
	default:
		fatal(fmt.Errorf("unknown algorithm %q", algo))
	}
	if err != nil {
		switch {
		case errors.Is(err, resilex.ErrAmbiguous):
			fmt.Fprintln(os.Stderr, "rexc: the expression is ambiguous; maximality is undefined")
		case errors.Is(err, resilex.ErrUnbounded):
			fmt.Fprintln(os.Stderr, "rexc: the prefix matches unboundedly many marked symbols; try -algo pivot")
		}
		fatal(err)
	}
	fmt.Println(out.String(tab))
}

func pivots(x resilex.Expr, tab *resilex.Table) {
	dec, err := resilex.PivotDecomposition(x)
	if err != nil {
		fatal(err)
	}
	fmt.Println(dec.String(tab))
}

func runExtract(x resilex.Expr, doc []resilex.Symbol, tab *resilex.Table) {
	splits := x.Splits(doc)
	switch len(splits) {
	case 0:
		fmt.Println("no match")
		os.Exit(1)
	case 1:
		fmt.Printf("extracted token %d: %s\n", splits[0], tab.Name(doc[splits[0]]))
		fmt.Printf("  %s\n", markAt(doc, splits[0], tab))
	default:
		fmt.Printf("AMBIGUOUS: %d extraction positions %v\n", len(splits), splits)
		for _, p := range splits {
			fmt.Printf("  %s\n", markAt(doc, p, tab))
		}
		os.Exit(1)
	}
}

func markAt(doc []resilex.Symbol, at int, tab *resilex.Table) string {
	var b strings.Builder
	for i, s := range doc {
		if i > 0 {
			b.WriteByte(' ')
		}
		if i == at {
			b.WriteString("<" + tab.Name(s) + ">")
		} else {
			b.WriteString(tab.Name(s))
		}
	}
	return b.String()
}
