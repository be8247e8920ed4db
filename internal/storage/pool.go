package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/stats"
)

// Pool is the thread-safe global pool of temporary storage blocks
// (Section III-A of the paper). A work order checks out a block, appends its
// output, and either emits the block when full or checks it back in
// partially filled for the next work order of the same operator. Reuse keeps
// output locality and avoids fragmentation; the single mutex is intentional —
// contention on the storage manager at small block sizes is one of the real
// effects the paper discusses (Section VII-B5).
//
// Concurrent queries share one pool through Subpool views: each query gets
// its own partial-block namespace (owner tags are plan-local operator
// indices, which would collide across queries) and its own live-bytes gauge,
// while the global gauge and the spill tier stay at the root. Released
// allocations go to one process-wide freelist (freeBufs), shared by every
// root, so block allocations amortize across queries and runs while
// accounting and the per-query zero-leak invariant stay exact per query.
type Pool struct {
	mu sync.Mutex
	// partial holds partially-filled blocks keyed by owner tag (one slot
	// per operator instance), so a block is only ever resumed by the
	// operator that started filling it. Each Subpool has its own map.
	partial map[int][]*Block
	// parent is the root pool for a Subpool view, nil for a root.
	parent *Pool

	gauge     *stats.MemGauge // live-bytes gauge of this view, may be nil
	checkouts func()          // per-checkout hook of this view, may be nil
	noRecycle atomic.Bool     // root only: bypass freeBufs both ways

	// spill is the optional disk tier (spill.go). Root only; subpool views
	// reach it through root(). Atomic so the nil check on hot paths is free.
	spill atomic.Pointer[spillTier]
}

// freeBufs is the process-wide freelist of temp-block allocations, keyed by
// the byte budget they were cut from (bufKey). Any schema and format can be
// laid over a recycled allocation, so a released block's bytes serve the next
// checkout of the same budget whatever it stores. At most maxFreePerSize
// allocations are kept per budget; beyond that the GC takes them.
var freeBufs = struct {
	mu sync.Mutex
	m  map[int][][]byte
}{m: make(map[int][][]byte)}

const maxFreePerSize = 256

// bufKey is the size of the allocation a block of schema cut from a
// blockBytes budget lives in: the budget, or one row when the budget holds
// less (NewBlock's minimum capacity).
func bufKey(schema *Schema, blockBytes int) int { return max(blockBytes, schema.RowWidth()) }

// DisableRecycling makes the root neither take allocations from the freelist
// nor return them to it. The MonetDB-style baseline uses it to model full
// materialization with fresh allocations per intermediate.
func (p *Pool) DisableRecycling() { p.root().noRecycle.Store(true) }

// takeBuf returns an allocation of size key: a recycled one from freeBufs
// unless the root disables recycling, else a new one. Recycled bytes are
// dirty; every block kernel writes a cell before anyone reads it.
func (p *Pool) takeBuf(key int) []byte {
	if !p.root().noRecycle.Load() {
		freeBufs.mu.Lock()
		if fs := freeBufs.m[key]; len(fs) > 0 {
			buf := fs[len(fs)-1]
			fs[len(fs)-1] = nil
			freeBufs.m[key] = fs[:len(fs)-1]
			freeBufs.mu.Unlock()
			return buf
		}
		freeBufs.mu.Unlock()
	}
	return make([]byte, key)
}

// putBuf files buf on the freelist under its capacity, the key takeBuf cut
// it at, unless the root disables recycling or the bound is reached.
func (p *Pool) putBuf(buf []byte) {
	if cap(buf) == 0 || p.root().noRecycle.Load() {
		return
	}
	freeBufs.mu.Lock()
	if fs := freeBufs.m[cap(buf)]; len(fs) < maxFreePerSize {
		freeBufs.m[cap(buf)] = append(fs, buf[:cap(buf)])
	}
	freeBufs.mu.Unlock()
}

// NewPool returns an empty pool. gauge (optional) receives allocation sizes
// of live temporary blocks; onCheckout (optional) is called once per
// checkout.
func NewPool(gauge *stats.MemGauge, onCheckout func()) *Pool {
	return &Pool{
		partial:   make(map[int][]*Block),
		gauge:     gauge,
		checkouts: onCheckout,
	}
}

// Subpool returns a per-query view of the pool: an isolated partial-block
// namespace with its own gauge and checkout hook, sharing the root's
// recycling policy, spill tier and gauge (which keeps counting every view's
// live bytes — the global memory picture the admission controller
// arbitrates).
// Subpools of a subpool attach to the same root.
func (p *Pool) Subpool(gauge *stats.MemGauge, onCheckout func()) *Pool {
	return &Pool{
		partial:   make(map[int][]*Block),
		parent:    p.root(),
		gauge:     gauge,
		checkouts: onCheckout,
	}
}

// root returns the pool owning the recycling policy, spill tier and global
// gauge (p itself for a root).
func (p *Pool) root() *Pool {
	if p.parent != nil {
		return p.parent
	}
	return p
}

// addLive credits n live bytes to this view's gauge and, for a subpool, the
// root's global gauge too. Gauges are atomic, so no lock is held here.
func (p *Pool) addLive(n int64) {
	if p.gauge != nil {
		p.gauge.Add(n)
	}
	if p.parent != nil && p.parent.gauge != nil {
		p.parent.gauge.Add(n)
	}
}

// subLive is the release-side counterpart of addLive.
func (p *Pool) subLive(n int64) {
	if p.gauge != nil {
		p.gauge.Sub(n)
	}
	if p.parent != nil && p.parent.gauge != nil {
		p.parent.gauge.Sub(n)
	}
}

// blockState is where a temp block is on its one path through the pool
// (Section III-A): checked out and filled, parked in its readers' edge
// buffers, delivered to them, released — or, before its release, kept in
// another gauge past its readers' work orders, or handed out of the run.
// Every Pool move below checks the states it takes a block from and panics
// with the block's state on an illegal one. A sealed block moves only under
// its run's scheduler lock; the spill tier keeps RAM-or-disk residency in
// its own entry, so an eviction on a worker never touches the state.
type blockState uint8

const (
	unowned   blockState = iota // NewBlock, DecodeBlock, a table's: no pool moves it
	filling                     // CheckOut: appended to, or checked in as a partial
	parked                      // Park: sealed, one ref per reader, in their edge buffers
	delivered                   // Pin: fed to a reader, resident until its last Drop
	kept                        // Keep: its bytes count in another gauge until its last Drop
	handedOut                   // HandOut: out of the run; Release only recycles it
	released                    // Release, or the last Drop: dead
)

var stateNames = [...]string{"unowned", "filling", "parked", "delivered", "kept", "handed-out", "released"}

func (s blockState) String() string { return stateNames[s] }

// must panics unless b is in one of the states move takes a block from.
func (b *Block) must(move string, from ...blockState) {
	for _, s := range from {
		if b.state == s {
			return
		}
	}
	panic(fmt.Sprintf("storage: %s of a %s block", move, b.state))
}

// Refs returns how many readers still hold a parked, delivered or kept
// block.
func (b *Block) Refs() int { return b.refs }

// CheckOut returns a filling block for owner (an operator instance tag) with
// the given schema, format, and byte budget: a previously checked-in partial
// block of that owner if one exists, else a new block laid over a recycled
// allocation of that budget, else over a fresh one.
func (p *Pool) CheckOut(owner int, schema *Schema, format Format, blockBytes int) *Block {
	if b := p.resume(owner, false, false); b != nil {
		return b
	}
	b := newBlockOver(schema, format, blockBytes, p.takeBuf(bufKey(schema, blockBytes)))
	b.state = filling
	p.charge(b)
	return b
}

// CheckOutView is CheckOut for a view whose column i is column proj[i] of
// its base blocks: a checked-in partial view of owner, else an empty view
// holding as many rows as a blockBytes temp block of schema. A listed view
// (Block.AppendView) has a rows buffer of 4 bytes a row from the freelist; a
// dense one (Block.AppendDense) has none. The base blocks belong to their
// tables and outlive the run, so only the rows buffer is charged.
func (p *Pool) CheckOutView(owner int, schema *Schema, proj []int, dense bool, format Format, blockBytes int) *Block {
	if b := p.resume(owner, true, dense); b != nil {
		return b
	}
	cap := max(1, blockBytes/schema.RowWidth())
	b := &Block{schema: schema, format: format, capacity: cap, state: filling, proj: proj}
	if !dense {
		buf := p.takeBuf(4 * cap)[:4*cap]
		b.data, b.rows = buf, unsafe.Slice((*int32)(unsafe.Pointer(&buf[0])), cap)
	}
	p.charge(b)
	return b
}

// resume counts a checkout and pops owner's last checked-in partial block,
// if any. An owner fills blocks of one kind — temp blocks, listed views or
// dense views — so a partial of another kind than view and dense ask for is
// a plan bug: resume panics and leaves it checked in, for the run's cleanup
// to take and release.
func (p *Pool) resume(owner int, view, dense bool) *Block {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.checkouts != nil {
		p.checkouts()
	}
	ps := p.partial[owner]
	if len(ps) == 0 {
		return nil
	}
	b := ps[len(ps)-1]
	if (b.proj != nil) != view || view && (b.rows == nil) != dense {
		panic("storage: resuming a partial of another kind than the block checked out")
	}
	p.partial[owner] = ps[:len(ps)-1]
	return b
}

// charge credits a fresh allocation to the live gauges. It is the
// allocation edge that can push the pool over its RAM threshold, so the
// spill tier sheds cold blocks right here, on the worker's stack, rather
// than waiting for the scheduler's next Park.
func (p *Pool) charge(b *Block) {
	p.addLive(int64(b.AllocBytes()))
	if t := p.root().spill.Load(); t != nil {
		t.balance()
	}
}

// Materialize turns filling view b, in place, into the temp block its rows
// make: the cells are copied out of the base blocks into an allocation of
// blockBytes, the budget the view was checked out with, charged to p like a
// checkout's and counted as one, and a listed view's rows buffer goes back
// to the freelist. The block keeps its identity, so whoever owned the view
// owns the block. A block that is not a view is left alone. Call it before
// any reader sees b: the view changes under it.
func (p *Pool) Materialize(b *Block, blockBytes int) {
	b.must("Materialize", filling)
	if b.proj == nil {
		return
	}
	p.mu.Lock()
	if p.checkouts != nil {
		p.checkouts()
	}
	p.mu.Unlock()
	m := newBlockOver(b.schema, b.format, blockBytes, p.takeBuf(bufKey(b.schema, blockBytes)))
	b.eachSeg(func(lo, hi int, base *Block, first int, rows []int32) {
		for ci, sc := range b.proj {
			d, dStride := m.colLayout(ci)
			copySeg(m.schema.ColWidth(ci), m.data, d+lo*dStride, dStride, base, sc, first, hi-lo, rows)
		}
	})
	m.n, m.state = b.n, filling
	rows := b.data
	*b = *m
	p.charge(b)
	p.subLive(int64(len(rows)))
	p.putBuf(rows)
}

// CheckIn returns a partially-filled block to the pool for later resumption
// by the same owner.
func (p *Pool) CheckIn(owner int, b *Block) {
	b.must("CheckIn", filling)
	p.mu.Lock()
	p.partial[owner] = append(p.partial[owner], b)
	p.mu.Unlock()
}

// TakePartials removes and returns all partially-filled blocks of owner;
// called when an operator finishes so its last, non-full blocks can still be
// transferred downstream (the paper: "partially filled blocks are scheduled
// for data transfer at the end of the operator's execution").
func (p *Pool) TakePartials(owner int) []*Block {
	p.mu.Lock()
	defer p.mu.Unlock()
	ps := p.partial[owner]
	delete(p.partial, owner)
	return ps
}

// PendingPartials returns the number of partially-filled blocks currently
// checked into this view across all owners. After a run completes (or is
// cleaned up after a failure) it must be zero; the scheduler's invariant
// checker uses it to detect leaked partials, per query when running on a
// Subpool.
func (p *Pool) PendingPartials() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, ps := range p.partial {
		n += len(ps)
	}
	return n
}

// Live returns the live temporary-block bytes of this view (0 without a
// gauge): per-query for a Subpool, global for the root.
func (p *Pool) Live() int64 {
	if p.gauge == nil {
		return 0
	}
	return p.gauge.Live()
}

// Cut moves filling block b, whose reader will keep it (a join build
// indexes the blocks it is fed until its table is released), into an
// allocation of exactly its rows, so a partial block does not pin a whole
// budget. Call it before any reader sees b. The old allocation goes back to
// the freelist; the cut one, whose size is no budget, goes to the GC at
// release. A full block is left alone.
func (p *Pool) Cut(b *Block) {
	b.must("Cut", filling)
	before := int64(b.AllocBytes())
	if old := b.cutToRows(); old != nil {
		p.putBuf(old)
		p.subLive(before - int64(b.AllocBytes()))
	}
}

// Park seals filling block b into the edge buffers of its readers, one ref
// each, and registers it with the spill tier as an eviction candidate owned
// by this view, then rebalances, returning the blocks and encoded bytes this
// call evicted (so the scheduler can trace-mark its own eviction rounds;
// worker-side CheckOut rebalances stay tier-counted only).
func (p *Pool) Park(b *Block, readers int) (evictedBlocks int, evictedBytes int64) {
	b.must("Park", filling)
	b.state, b.refs = parked, readers
	t := p.root().spill.Load()
	if t == nil {
		return 0, 0
	}
	t.cool(p, b)
	return t.balance()
}

// Pin delivers parked block b to one of its readers: it becomes ineligible
// for eviction and, if currently spilled, is faulted back in before Pin
// returns. A block delivered to one reader may be pinned for the next. The
// error is the read fault that persisted past the retry bound; the block
// then stays parked, and the caller must abandon the delivery.
func (p *Pool) Pin(b *Block) (PinResult, error) {
	b.must("Pin", parked, delivered)
	var pr PinResult
	if t := p.root().spill.Load(); t != nil {
		var err error
		if pr, err = t.pin(b); err != nil {
			return pr, err
		}
	}
	b.state = delivered
	return pr, nil
}

// Keep hands delivered block b to a reader that keeps it past its work
// orders: the spill tier stops tracking it, and its bytes leave this view's
// live gauges for g until its last Drop takes them off g.
func (p *Pool) Keep(b *Block, g *stats.MemGauge) {
	b.must("Keep", delivered)
	g.Add(p.unlive(b))
	b.state, b.keptIn = kept, g
}

// HandOut drops an adopting reader's ref on delivered block b and, with the
// last, hands the block out of the run: the spill tier stops tracking it and
// the live gauges stop counting it, so a later Release only recycles it.
func (p *Pool) HandOut(b *Block) {
	b.must("HandOut", delivered)
	if b.refs--; b.refs > 0 {
		return
	}
	p.unlive(b)
	b.state = handedOut
}

// unlive takes resident block b off the spill tier and this view's live
// gauges, returning its bytes.
func (p *Pool) unlive(b *Block) int64 {
	if t := p.root().spill.Load(); t != nil {
		t.drop(b)
	}
	n := int64(b.AllocBytes())
	p.subLive(n)
	return n
}

// Drop drops one reader's ref on parked, delivered or kept block b and,
// with the last, releases it, reporting whether it did.
func (p *Pool) Drop(b *Block) bool {
	b.must("Drop", parked, delivered, kept)
	if b.refs--; b.refs > 0 {
		return false
	}
	p.free(b)
	return true
}

// Release ends a filling block no reader holds (an empty or rolled-back
// checkout, an aborted run's partial) or a handed-out one.
func (p *Pool) Release(b *Block) {
	b.must("Release", filling, handedOut)
	p.free(b)
}

// free ends b. Its allocation goes back to the freelist and no longer
// counts as live intermediate memory (a kept block's, as live bytes of the
// gauge Keep moved it to); the block itself is dead — its data is nil'd, so
// a stale reader panics instead of reading the rows of whichever block is
// laid over the allocation next. A block the spill tier evicted has no RAM
// allocation and was uncredited at eviction time, so only its disk record
// is reclaimed.
func (p *Pool) free(b *Block) {
	spilled := false
	if t := p.root().spill.Load(); t != nil && (b.state == parked || b.state == delivered) {
		spilled = t.drop(b)
	}
	switch {
	case spilled: // settled at eviction; the data lives on disk only
	case b.state == kept:
		b.keptIn.Sub(int64(b.AllocBytes()))
	case b.state != handedOut:
		p.subLive(int64(b.AllocBytes()))
	}
	if !b.cut {
		p.putBuf(b.data)
	}
	b.data, b.rows, b.segs, b.state = nil, nil, nil, released
}
