package expr

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/types"
)

// LikeExpr matches a Char expression against a SQL LIKE pattern supporting
// '%' (any run) and '_' (any single byte). TPC-H predicates such as
// '%special%requests%' (Q13) and 'PROMO%' (Q14) use it.
type LikeExpr struct {
	X       Expr
	Pattern string
	Negate  bool
	segs    *likeSegs // Pattern compiled by Like/NotLike, nil if it has '_'
}

// Like builds x LIKE pattern.
func Like(x Expr, pattern string) *LikeExpr {
	return &LikeExpr{X: x, Pattern: pattern, segs: compileLike(pattern)}
}

// NotLike builds x NOT LIKE pattern.
func NotLike(x Expr, pattern string) *LikeExpr {
	e := Like(x, pattern)
	e.Negate = true
	return e
}

// Type implements Expr.
func (e *LikeExpr) Type() types.TypeID { return types.Int64 }

// Eval implements Expr.
func (e *LikeExpr) Eval(c *Ctx) types.Datum {
	return boolDatum(e.match(e.X.Eval(c).Bytes()) != e.Negate)
}

// String implements Expr.
func (e *LikeExpr) String() string {
	op := "LIKE"
	if e.Negate {
		op = "NOT LIKE"
	}
	return fmt.Sprintf("%s %s '%s'", e.X, op, e.Pattern)
}

// match reports whether s (unpadded, unless e.segs.padded) matches the
// pattern.
func (e *LikeExpr) match(s []byte) bool {
	if e.segs != nil {
		return e.segs.match(s)
	}
	return likeMatch(s, e.Pattern)
}

// likeSegs is a LIKE pattern without '_', compiled once: the literal before
// its first '%' (prefix), the one after its last (suffix), and the non-empty
// literals in between (mids). With '%' the only wildcard, taking each mid at
// its leftmost occurrence after the previous one is exact.
type likeSegs struct {
	prefix, suffix string
	mids           [][]byte
	exact          bool // no '%': the text must equal the pattern
	// padded: the pattern has no zero byte and ends in '%', so a text
	// followed by zero padding matches exactly when the text does — no mid
	// or prefix can match into the padding.
	padded bool
}

// compileLike compiles p, or returns nil if p has a '_'.
func compileLike(p string) *likeSegs {
	if strings.IndexByte(p, '_') >= 0 {
		return nil
	}
	parts := strings.Split(p, "%")
	m := &likeSegs{prefix: parts[0], exact: len(parts) == 1,
		padded: strings.IndexByte(p, 0) < 0 && strings.HasSuffix(p, "%")}
	if m.exact {
		return m
	}
	m.suffix = parts[len(parts)-1]
	for _, s := range parts[1 : len(parts)-1] {
		if s != "" {
			m.mids = append(m.mids, []byte(s))
		}
	}
	return m
}

func (m *likeSegs) match(s []byte) bool {
	if m.exact {
		return string(s) == m.prefix
	}
	if len(s) < len(m.prefix)+len(m.suffix) || string(s[:len(m.prefix)]) != m.prefix ||
		string(s[len(s)-len(m.suffix):]) != m.suffix {
		return false
	}
	s = s[len(m.prefix) : len(s)-len(m.suffix)]
	for _, mid := range m.mids {
		i := bytes.Index(s, mid)
		if i < 0 {
			return false
		}
		s = s[i+len(mid):]
	}
	return true
}

// likeMatch implements LIKE with the standard two-pointer backtracking
// algorithm: on a mismatch after a '%', the pattern resumes at the character
// after that '%' and the text advances one byte. A '%' in the pattern is
// always the wildcard, even against a '%' in the text.
func likeMatch(s []byte, p string) bool {
	si, pi := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && p[pi] == '%':
			star = pi
			mark = si
			pi++
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case star >= 0:
			pi = star + 1
			mark++
			si = mark
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
