// Package sqlq parses the paper's SQL-like top-k query syntax
// (Examples 1 and 2):
//
//	SELECT name FROM restaurants
//	ORDER BY min(rating, closeness) STOP AFTER 5
//
// The grammar, case-insensitive in keywords:
//
//	query   := SELECT ident FROM ident ORDER BY scoring STOP AFTER int
//	scoring := func '(' args ')'
//	func    := MIN | MAX | AVG | PRODUCT | GEOMEAN | WSUM
//	args    := arg (',' arg)*            -- at least one
//	arg     := ident                      -- plain predicate
//	         | number '*' ident           -- weighted (WSUM only)
//
// Parsing yields a Query holding the scoring function, the predicate names
// in query order, and the retrieval size; Bind resolves predicate names
// against a table's column names, producing the column indices the
// middleware engine operates on.
package sqlq

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/score"
)

// Query is a parsed top-k query.
type Query struct {
	// Select is the projected attribute (informational; the middleware
	// returns object identities).
	Select string
	// From is the table (dataset) name.
	From string
	// Func is the scoring function, ready to evaluate the predicates in
	// Predicates order.
	Func score.Func
	// Predicates are the predicate names, in the order Func consumes them.
	Predicates []string
	// K is the retrieval size from STOP AFTER.
	K int
}

// String reassembles the canonical form of the query, which Parse accepts
// and maps back to an equivalent Query. A weighted sum prints each weight
// in front of its predicate, in plain decimal notation (the only one the
// grammar's number token has).
func (q *Query) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "select %s from %s order by ", q.Select, q.From)
	if w, ok := q.Func.(score.Weighter); ok {
		b.WriteString("wsum(")
		for i, wi := range w.Weights() {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strconv.FormatFloat(wi, 'f', -1, 64))
			b.WriteByte('*')
			b.WriteString(q.Predicates[i])
		}
	} else {
		b.WriteString(q.Func.Name())
		b.WriteByte('(')
		b.WriteString(strings.Join(q.Predicates, ", "))
	}
	fmt.Fprintf(&b, ") stop after %d", q.K)
	return b.String()
}

type tokenKind int

const (
	tokIdent tokenKind = iota
	tokNumber
	tokPunct
	tokEOF
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

type lexer struct {
	in  string
	pos int
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.in) && unicode.IsSpace(rune(l.in[l.pos])) {
		l.pos++
	}
	if l.pos >= len(l.in) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.in[l.pos]
	switch {
	case c == '(' || c == ')' || c == ',' || c == '*':
		l.pos++
		return token{kind: tokPunct, text: string(c), pos: start}, nil
	case c >= '0' && c <= '9' || c == '.':
		for l.pos < len(l.in) && (l.in[l.pos] >= '0' && l.in[l.pos] <= '9' || l.in[l.pos] == '.') {
			l.pos++
		}
		return token{kind: tokNumber, text: l.in[start:l.pos], pos: start}, nil
	case isIdentRune(rune(c)):
		for l.pos < len(l.in) && isIdentRune(rune(l.in[l.pos])) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.in[start:l.pos], pos: start}, nil
	default:
		return token{}, fmt.Errorf("sqlq: unexpected character %q at position %d", c, start)
	}
}

func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '.'
}

type parser struct {
	lex *lexer
	tok token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expectKeyword(kw string) error {
	if p.tok.kind != tokIdent || !strings.EqualFold(p.tok.text, kw) {
		return fmt.Errorf("sqlq: expected %q at position %d, found %q", kw, p.tok.pos, p.tok.text)
	}
	return p.advance()
}

func (p *parser) expectIdent(what string) (string, error) {
	if p.tok.kind != tokIdent {
		return "", fmt.Errorf("sqlq: expected %s at position %d, found %q", what, p.tok.pos, p.tok.text)
	}
	name := p.tok.text
	if err := p.advance(); err != nil {
		return "", err
	}
	return name, nil
}

func (p *parser) expectPunct(s string) error {
	if p.tok.kind != tokPunct || p.tok.text != s {
		return fmt.Errorf("sqlq: expected %q at position %d, found %q", s, p.tok.pos, p.tok.text)
	}
	return p.advance()
}

// Parse parses one query.
func Parse(input string) (*Query, error) {
	p := &parser{lex: &lexer{in: input}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	q := &Query{}
	var err error
	if err = p.expectKeyword("select"); err != nil {
		return nil, err
	}
	if q.Select, err = p.expectIdent("projection attribute"); err != nil {
		return nil, err
	}
	if err = p.expectKeyword("from"); err != nil {
		return nil, err
	}
	if q.From, err = p.expectIdent("table name"); err != nil {
		return nil, err
	}
	if err = p.expectKeyword("order"); err != nil {
		return nil, err
	}
	if err = p.expectKeyword("by"); err != nil {
		return nil, err
	}
	fname, err := p.expectIdent("scoring function")
	if err != nil {
		return nil, err
	}
	if err = p.expectPunct("("); err != nil {
		return nil, err
	}
	var weights []float64
	weighted := strings.EqualFold(fname, "wsum")
	for {
		if weighted && p.tok.kind == tokNumber {
			w, perr := strconv.ParseFloat(p.tok.text, 64)
			if perr != nil {
				return nil, fmt.Errorf("sqlq: bad weight %q at position %d", p.tok.text, p.tok.pos)
			}
			if err = p.advance(); err != nil {
				return nil, err
			}
			if err = p.expectPunct("*"); err != nil {
				return nil, err
			}
			weights = append(weights, w)
		} else if weighted {
			weights = append(weights, 1)
		} else if p.tok.kind == tokNumber {
			return nil, fmt.Errorf("sqlq: weights are only allowed in wsum(...), found %q at position %d", p.tok.text, p.tok.pos)
		}
		pred, perr := p.expectIdent("predicate name")
		if perr != nil {
			return nil, perr
		}
		q.Predicates = append(q.Predicates, pred)
		if p.tok.kind == tokPunct && p.tok.text == "," {
			if err = p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err = p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err = p.expectKeyword("stop"); err != nil {
		return nil, err
	}
	if err = p.expectKeyword("after"); err != nil {
		return nil, err
	}
	if p.tok.kind != tokNumber {
		return nil, fmt.Errorf("sqlq: expected retrieval size at position %d, found %q", p.tok.pos, p.tok.text)
	}
	k, err := strconv.Atoi(p.tok.text)
	if err != nil || k < 1 {
		return nil, fmt.Errorf("sqlq: retrieval size must be a positive integer, got %q", p.tok.text)
	}
	q.K = k
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, fmt.Errorf("sqlq: trailing input at position %d: %q", p.tok.pos, p.tok.text)
	}

	// Resolve the scoring function.
	if weighted {
		q.Func = score.Weighted(weights...)
	} else {
		f, err := score.ByName(strings.ToLower(fname))
		if err != nil {
			return nil, fmt.Errorf("sqlq: unknown scoring function %q (min, max, avg, product, geomean, wsum)", fname)
		}
		q.Func = f
	}
	if err := score.Validate(q.Func, len(q.Predicates)); err != nil {
		return nil, err
	}
	// Duplicate predicates would make per-predicate access bookkeeping
	// ambiguous.
	seen := make(map[string]bool, len(q.Predicates))
	for _, pred := range q.Predicates {
		key := strings.ToLower(pred)
		if seen[key] {
			return nil, fmt.Errorf("sqlq: duplicate predicate %q", pred)
		}
		seen[key] = true
	}
	return q, nil
}

// Bind resolves the query's predicate names against a table's column
// names (case-insensitive), returning for each query predicate the column
// index it refers to. The middleware then evaluates the query over the
// projected columns in query order.
func Bind(q *Query, columns []string) ([]int, error) {
	idx := make(map[string]int, len(columns))
	for i, c := range columns {
		idx[strings.ToLower(c)] = i
	}
	out := make([]int, len(q.Predicates))
	for i, pred := range q.Predicates {
		j, ok := idx[strings.ToLower(pred)]
		if !ok {
			return nil, fmt.Errorf("sqlq: predicate %q not found among columns %v", pred, columns)
		}
		out[i] = j
	}
	return out, nil
}
