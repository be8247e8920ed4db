package exec

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/storage"
)

// This file gives every relational operator a canonical semantic encoding,
// consumed by internal/reuse to fingerprint plan subtrees. The contract:
//
//   - Canon() must capture everything that affects the operator's OUTPUT —
//     expressions, key columns, join type, projections, output schema
//     (column names included: a spliced cache entry replays the stored
//     schema verbatim), aggregate functions, sort terms, limits, and for
//     base scans the scanned table's identity and data version.
//   - Canon() must NOT capture anything the golden harness proves
//     result-invariant: UoT values, worker counts, block sizes/formats,
//     fast-path-vs-reference switches, or display names. A build's LIP
//     filter has no setting to capture: it exists because a select reads
//     it, and it is sized from the entries the build indexed, so the
//     build's subtree fixes it.
//
// Operators that don't implement Canon (collect sinks, reuse taps included)
// make their subtree unfingerprintable, which the reuse layer treats as
// "never cache, never splice" — conservative and always correct.

// Canonical is implemented by operators that can describe themselves for
// subplan fingerprinting.
type Canonical interface {
	Canon() string
}

func canonExprs(es []expr.Expr) string {
	var sb strings.Builder
	for i, e := range es {
		if i > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(e.String())
	}
	return sb.String()
}

func canonInts(xs []int) string { return fmt.Sprintf("%v", xs) }

// Canon implements Canonical. A base scan's identity is the scanned table's
// process-unique UID plus its data version, so reloading a dataset or
// mutating a table changes every fingerprint built over it.
func (o *SelectOp) Canon() string {
	var sb strings.Builder
	sb.WriteString("select|src=")
	if o.base != nil {
		fmt.Fprintf(&sb, "%d@%d", o.base.UID(), o.base.Version())
	} else {
		sb.WriteString("pipe")
	}
	sb.WriteString("|pred=")
	if o.pred != nil {
		sb.WriteString(o.pred.String())
	}
	sb.WriteString("|proj=")
	sb.WriteString(canonExprs(o.projExprs))
	if len(o.lips) > 0 {
		// LIP filters prune this operator's own output, so they are
		// semantic here; the referenced build's subtree is hashed through
		// its blocking edge, and it fixes the filter's keys and size; the
		// key column is recorded in place.
		sb.WriteString("|lip=")
		for i, l := range o.lips {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", l.KeyCol)
		}
	}
	sb.WriteString("|out=")
	sb.WriteString(o.out.String())
	return sb.String()
}

// BaseTable returns the scanned base table (nil for a piped select); the
// reuse layer collects these as a cached entry's invalidation dependencies.
func (o *SelectOp) BaseTable() *storage.Table { return o.base }

// Canon implements Canonical. Whether a select reads the build's table as a
// LIP is up to the select, so it is not encoded here; a select records the
// LIPs it reads in its own encoding.
func (o *BuildHashOp) Canon() string {
	return fmt.Sprintf("build|keys=%s|payload=%s|keyonly=%t",
		canonInts(o.keyCols), canonInts(o.payloadIdx), len(o.payloadIdx) == 0)
}

// Canon implements Canonical. The build side's content is hashed through
// the blocking build→probe edge, not here.
func (o *ProbeOp) Canon() string {
	res := ""
	if o.residual != nil {
		res = o.residual.String()
	}
	return fmt.Sprintf("probe|keys=%s|type=%s|residual=%s|pproj=%s|bproj=%s|out=%s",
		canonInts(o.keyCols), o.joinType.String(), res,
		canonInts(o.probeProj), canonInts(o.buildProj), o.out.String())
}

// Canon implements Canonical.
func (o *AggOp) Canon() string {
	var sb strings.Builder
	sb.WriteString("agg|group=")
	sb.WriteString(canonExprs(o.groupBy))
	sb.WriteString("|aggs=")
	for i, a := range o.aggs {
		if i > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(aggNames[a.Func])
		sb.WriteByte('(')
		if a.Arg != nil {
			sb.WriteString(a.Arg.String())
		} else {
			sb.WriteByte('*')
		}
		sb.WriteByte(')')
	}
	sb.WriteString("|out=")
	sb.WriteString(o.out.String())
	return sb.String()
}

// Canon implements Canonical.
func (o *SortOp) Canon() string {
	var sb strings.Builder
	sb.WriteString("sort|terms=")
	for i, t := range o.terms {
		if i > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(t.Key.String())
		if t.Desc {
			sb.WriteString(" desc")
		}
	}
	fmt.Fprintf(&sb, "|limit=%d|out=%s", o.limit, o.schema.String())
	return sb.String()
}
