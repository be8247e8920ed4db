package storage

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The spill tier sits behind the root Pool and gives temp blocks a second,
// disk-backed home (the paper's Section V-C persistent-store regime). A
// block parked in edge buffers (Pool.Park) is *cooled* — registered as an
// eviction candidate on an LRU — and while the root gauge sits above the
// configured threshold the tier encodes the coldest unpinned block
// (codec.go), appends it to an extent file in the per-run spill directory,
// and drops its RAM allocation. When the scheduler is about to hand a block to a consumer it
// *pins* it, which faults spilled contents back in synchronously (the
// read-through the delivery path blocks on) and makes the block ineligible
// for eviction until it is released. Pin/release bracket exactly the window
// in which operator code can touch block memory, so eviction never races a
// reader: that invariant is counted (BadEvicts) and asserted in tests.

// SpillConfig configures a root pool's spill tier.
type SpillConfig struct {
	// Dir is the parent directory; the tier creates (and on CloseSpill
	// removes) a private per-run subdirectory inside it.
	Dir string
	// Threshold is the root live-byte level above which cooled blocks are
	// evicted, coldest first. Zero means any live byte is pressure — useful
	// for tests that want maximal eviction.
	Threshold int64
	// MaxExtentBytes rotates extent files once they grow past this size
	// (default 8 MiB). Whole-file reclamation keeps deletes cheap: an extent
	// is unlinked as soon as its last live record is faulted in or dropped.
	MaxExtentBytes int64
	// WriteFault/ReadFault, when set, are consulted before each spill write
	// and each fault-in read. A non-nil error (or a panic, which the tier
	// recovers) demotes the operation to stall-and-retry: a faulted write
	// leaves the block resident in RAM, a faulted read is retried a bounded
	// number of times before the pin fails. The hooks are plain funcs so the
	// storage layer stays ignorant of the faults package.
	WriteFault func() error
	ReadFault  func() error
}

// SpillCounters is a snapshot of a tier's lifetime activity.
type SpillCounters struct {
	BlocksOut, BytesOut int64 // evictions: blocks encoded and written
	BlocksIn, BytesIn   int64 // fault-ins: blocks read back and decoded
	WriteFaults         int64 // injected/real write failures (block stayed in RAM)
	ReadFaults          int64 // injected/real read failures (retried)
	FaultStallNS        int64 // wall time deliveries spent blocked on fault-in
	DiskLive            int64 // bytes currently held in extent files
	DiskPeak            int64 // high-water mark of DiskLive
	BadEvicts           int64 // pin observed a spilled block while already pinned (invariant breach)
	Outstanding         int   // blocks still tracked by the tier (0 after a clean drain)
}

// PinResult reports what one Pin had to do, so the delivery path can
// attribute fault-in traffic and stall time to the edge it served without
// diffing tier-wide counters (which other queries sharing the pool would
// pollute).
type PinResult struct {
	FaultedIn bool
	Bytes     int64 // encoded bytes read back from the extent file
	StallNS   int64 // wall time the caller was blocked on the fault-in
}

// spillReadRetries bounds the fault-in retry loop before the pin — and with
// it the delivery — fails with the read error.
const spillReadRetries = 8

type extent struct {
	f    *os.File
	path string
	size int64
	live int // spilled records still resident in this file
}

type spillEntry struct {
	view    *Pool // subpool view whose gauge tracks this block
	pins    int   // delivered-and-not-yet-released count; >0 blocks eviction
	spilled bool
	ext     *extent
	off     int64
	len     int
	alloc   int64         // AllocBytes at cool time (gauge credit moved on evict/fault-in)
	bufCap  int           // capacity of the allocation, its freelist key, for fault-in
	elem    *list.Element // LRU position; nil once pinned or spilled
}

type spillTier struct {
	root *Pool
	cfg  SpillConfig
	dir  string

	mu      sync.Mutex
	closed  bool
	entries map[*Block]*spillEntry
	lru     *list.List // of *Block; front = coldest
	extents map[*extent]struct{}
	cur     *extent
	extSeq  int
	scratch []byte // encode-buffer reuse across evictions (under mu)

	c SpillCounters
}

// EnableSpill attaches a spill tier to this pool's root, creating the
// per-run spill directory. It errors if the directory cannot be created or a
// tier is already attached.
func (p *Pool) EnableSpill(cfg SpillConfig) error {
	r := p.root()
	if r.spill.Load() != nil {
		return fmt.Errorf("storage: spill tier already enabled")
	}
	if cfg.Dir == "" {
		return fmt.Errorf("storage: spill tier needs a directory")
	}
	if cfg.MaxExtentBytes <= 0 {
		cfg.MaxExtentBytes = 8 << 20
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("storage: spill dir: %w", err)
	}
	dir, err := os.MkdirTemp(cfg.Dir, "uot-spill-")
	if err != nil {
		return fmt.Errorf("storage: spill dir: %w", err)
	}
	t := &spillTier{
		root:    r,
		cfg:     cfg,
		dir:     dir,
		entries: make(map[*Block]*spillEntry),
		lru:     list.New(),
		extents: make(map[*extent]struct{}),
	}
	r.spill.Store(t)
	return nil
}

// SpillDir returns the per-run spill directory, or "" when no tier is
// attached (tests use it to assert the directory is gone after CloseSpill).
func (p *Pool) SpillDir() string {
	if t := p.root().spill.Load(); t != nil {
		return t.dir
	}
	return ""
}

// CloseSpill detaches and shuts down the spill tier: every extent file is
// closed and the per-run directory removed, orphaned spill files included.
// Safe to call without a tier (no-op) and after a failed run.
func (p *Pool) CloseSpill() error {
	t := p.root().spill.Swap(nil)
	if t == nil {
		return nil
	}
	return t.close()
}

// SpillCounters snapshots the tier's counters (zero value without a tier).
func (p *Pool) SpillCounters() SpillCounters {
	t := p.root().spill.Load()
	if t == nil {
		return SpillCounters{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.c
	c.Outstanding = len(t.entries)
	return c
}

// cool registers parked block b, owned by view, as an eviction candidate.
func (t *spillTier) cool(view *Pool, b *Block) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	if b.proj != nil {
		return // a view is 4 bytes a row and its base blocks never leave RAM
	}
	ent := &spillEntry{view: view, alloc: int64(b.AllocBytes()), bufCap: cap(b.data)}
	ent.elem = t.lru.PushBack(b)
	t.entries[b] = ent
}

// balance evicts coldest-first while the root gauge is above the threshold,
// returning how many blocks (and encoded bytes) this call moved to disk.
// It is called from the scheduler (Park) and from worker-side CheckOuts, so
// evictions genuinely race pins — the mutex plus the pin/LRU exclusion carry
// the safety argument.
func (t *spillTier) balance() (blocks int, bytes int64) {
	for {
		g := t.root.gauge
		if g == nil || g.Live() <= t.cfg.Threshold {
			return blocks, bytes
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return blocks, bytes
		}
		front := t.lru.Front()
		if front == nil {
			t.mu.Unlock()
			return blocks, bytes // everything is pinned or spilled; pressure must wait
		}
		if t.cfg.WriteFault != nil {
			if err := safeFault(t.cfg.WriteFault); err != nil {
				t.c.WriteFaults++
				t.mu.Unlock()
				return blocks, bytes // demoted: block stays resident, retry on next trigger
			}
		}
		b := front.Value.(*Block)
		ent := t.entries[b]
		t.scratch = EncodeBlock(b, t.scratch)
		ext, off, err := t.writeLocked(t.scratch)
		if err != nil {
			t.c.WriteFaults++
			t.mu.Unlock()
			return blocks, bytes // real I/O failure: same demotion, data still in RAM
		}
		t.lru.Remove(front)
		ent.elem = nil
		ent.spilled = true
		ent.ext, ent.off, ent.len = ext, off, len(t.scratch)
		b.dropData()
		t.c.BlocksOut++
		t.c.BytesOut += int64(ent.len)
		t.c.DiskLive += int64(ent.len)
		if t.c.DiskLive > t.c.DiskPeak {
			t.c.DiskPeak = t.c.DiskLive
		}
		blocks++
		bytes += int64(ent.len)
		view, alloc := ent.view, ent.alloc
		t.mu.Unlock()
		view.subLive(alloc)
	}
}

// writeLocked appends data to the current extent, rotating first if it would
// grow past the cap. Called with t.mu held.
func (t *spillTier) writeLocked(data []byte) (*extent, int64, error) {
	if t.cur == nil || (t.cur.size > 0 && t.cur.size+int64(len(data)) > t.cfg.MaxExtentBytes) {
		path := filepath.Join(t.dir, fmt.Sprintf("ext-%06d.spill", t.extSeq))
		t.extSeq++
		f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_EXCL, 0o644)
		if err != nil {
			return nil, 0, err
		}
		t.cur = &extent{f: f, path: path}
		t.extents[t.cur] = struct{}{}
	}
	off := t.cur.size
	if _, err := t.cur.f.WriteAt(data, off); err != nil {
		return nil, 0, err
	}
	t.cur.size += int64(len(data))
	t.cur.live++
	return t.cur, off, nil
}

func (t *spillTier) pin(b *Block) (PinResult, error) {
	start := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	ent := t.entries[b]
	if ent == nil {
		return PinResult{}, nil
	}
	if ent.spilled && ent.pins > 0 {
		t.c.BadEvicts++ // eviction raced a live pin — must never happen
	}
	ent.pins++
	if ent.elem != nil {
		t.lru.Remove(ent.elem)
		ent.elem = nil
	}
	if !ent.spilled {
		return PinResult{}, nil
	}

	buf := make([]byte, ent.len)
	alloc := t.root.takeBuf(ent.bufCap)
	var lastErr error
	for attempt := 0; attempt < spillReadRetries; attempt++ {
		if t.cfg.ReadFault != nil {
			if err := safeFault(t.cfg.ReadFault); err != nil {
				t.c.ReadFaults++
				lastErr = err
				continue // stall-and-retry
			}
		}
		if _, err := ent.ext.f.ReadAt(buf, ent.off); err != nil {
			t.c.ReadFaults++
			lastErr = err
			continue
		}
		if err := decodeInto(b, buf, alloc); err != nil {
			t.c.ReadFaults++
			lastErr = err
			continue
		}
		lastErr = nil
		break
	}
	if lastErr != nil {
		ent.pins-- // delivery will be abandoned; leave the record on disk
		return PinResult{}, fmt.Errorf("storage: spill fault-in failed after %d attempts: %w", spillReadRetries, lastErr)
	}
	// Delivered blocks are never re-cooled, so the disk record is dead the
	// moment fault-in succeeds: reclaim it now to bound the high-water mark.
	t.freeRecordLocked(ent)
	ent.spilled = false
	ent.ext, ent.off, ent.len = nil, 0, 0
	stall := time.Since(start).Nanoseconds()
	t.c.BlocksIn++
	t.c.BytesIn += int64(len(buf))
	t.c.FaultStallNS += stall
	ent.view.addLive(ent.alloc)
	return PinResult{FaultedIn: true, Bytes: int64(len(buf)), StallNS: stall}, nil
}

// freeRecordLocked releases ent's disk record, unlinking the extent file
// when its last live record goes. Called with t.mu held.
func (t *spillTier) freeRecordLocked(ent *spillEntry) {
	ext := ent.ext
	t.c.DiskLive -= int64(ent.len)
	ext.live--
	if ext.live == 0 && ext != t.cur {
		ext.f.Close()
		os.Remove(ext.path)
		delete(t.extents, ext)
	}
}

// drop removes b from the tier. It reports whether the block's bytes are on
// disk (so a release skips the gauge and the freelist: the RAM side was
// already uncredited at eviction and there is no allocation to recycle).
func (t *spillTier) drop(b *Block) (wasSpilled bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ent := t.entries[b]
	if ent == nil {
		return false
	}
	delete(t.entries, b)
	if ent.elem != nil {
		t.lru.Remove(ent.elem)
	}
	if ent.spilled {
		t.freeRecordLocked(ent)
		return true
	}
	return false
}

func (t *spillTier) close() error {
	t.mu.Lock()
	t.closed = true
	for ext := range t.extents {
		ext.f.Close()
	}
	t.extents = make(map[*extent]struct{})
	t.cur = nil
	t.entries = make(map[*Block]*spillEntry)
	t.lru.Init()
	dir := t.dir
	t.mu.Unlock()
	return os.RemoveAll(dir)
}

// safeFault runs a fault hook, converting a panic (the injector's KindPanic)
// into an error so spill I/O demotes to stall-and-retry instead of crashing
// the run mid-spill.
func safeFault(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("storage: spill fault hook panicked: %v", r)
		}
	}()
	return f()
}
