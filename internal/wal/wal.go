// Package wal implements a per-node, append-only, segmented write-ahead
// commit log with group commit, periodic snapshots, and crash recovery.
//
// The quorum-node commit path appends every applied write (object key,
// value, committed version, and the transaction/Block that produced it —
// dependency metadata in the style of dependency logging) to the log and
// waits for the record to be fsynced *before* acknowledging the decision
// round. Syncs are batched: a background syncer flushes and fsyncs once per
// FsyncInterval, so under concurrent commit load the hot path pays one
// fsync per batch of transactions instead of one per transaction.
//
// Recovery loads the newest CRC-valid snapshot, replays every later
// segment record in order (version-max semantics, matching Store.Apply's
// forward-only rule), truncates a torn tail on the final segment, and
// hands back the reconstructed object state. A node that replays before
// serving rejoins version-current without depending on read-repair.
package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"qracn/internal/store"
)

// ErrClosed is returned by Append after Close or Crash.
var ErrClosed = errors.New("wal: log closed")

// errInjectedSyncFailure is the synthetic I/O error produced by
// SetSyncFailEvery (slow/failing-disk fault injection in tests).
var errInjectedSyncFailure = errors.New("wal: injected fsync failure")

// Options tunes a Log.
type Options struct {
	// FsyncInterval is the group-commit window: appends block until the
	// next batched fsync, at most this long (default 2ms). Negative means
	// sync-per-append (no group commit), for A/B measurements.
	FsyncInterval time.Duration
	// SegmentSize is the roll threshold in bytes (default 4 MiB).
	SegmentSize int64
}

func (o *Options) fillDefaults() {
	if o.FsyncInterval == 0 {
		o.FsyncInterval = 2 * time.Millisecond
	}
	if o.SegmentSize == 0 {
		o.SegmentSize = 4 << 20
	}
}

// Stats is a point-in-time copy of the log's counters.
type Stats struct {
	// Appends counts Append calls (one per commit decision batch);
	// Records counts individual records written.
	Appends uint64
	Records uint64
	// Fsyncs counts file syncs; Appends/Fsyncs is the group-commit
	// amortization factor. MaxBatch is the largest number of Append calls
	// a single fsync covered.
	Fsyncs   uint64
	MaxBatch uint64
	// Snapshots counts checkpoints taken; SegmentsRemoved counts segment
	// files deleted by compaction.
	Snapshots       uint64
	SegmentsRemoved uint64
	// ReplayedRecords and ReplayedSnapshot describe the last recovery:
	// log records replayed and objects loaded from the snapshot.
	ReplayedRecords  uint64
	ReplayedSnapshot uint64
	// TornTailTruncated reports whether recovery dropped a torn tail.
	TornTailTruncated bool
}

// Add accumulates another log's counters: MaxBatch merges by maximum and
// TornTailTruncated by OR.
func (s *Stats) Add(o Stats) {
	s.Appends += o.Appends
	s.Records += o.Records
	s.Fsyncs += o.Fsyncs
	s.MaxBatch = max(s.MaxBatch, o.MaxBatch)
	s.Snapshots += o.Snapshots
	s.SegmentsRemoved += o.SegmentsRemoved
	s.ReplayedRecords += o.ReplayedRecords
	s.ReplayedSnapshot += o.ReplayedSnapshot
	s.TornTailTruncated = s.TornTailTruncated || o.TornTailTruncated
}

// Recovered is the object state reconstructed by Open.
type Recovered struct {
	// Objects holds the recovered value+version per object (NewVersion is
	// the object's version), ready for Store.Restore.
	Objects []store.WriteDesc
	// InDoubt lists prepare records with no matching decision record, in
	// replay order: transactions this node voted yes for whose outcome it
	// never durably learned. The server re-arms their protections and hands
	// them to the cooperative-termination resolver instead of trusting a
	// protection TTL.
	InDoubt []Record
	// Decided maps transaction ids from replayed decision records to their
	// outcome (true = commit), so a restarted node answers peer status
	// queries about recently decided transactions authoritatively.
	Decided map[string]bool
	// SnapshotObjects and LogRecords break down where the state came from.
	SnapshotObjects int
	LogRecords      int
	// TornTail reports that the final segment ended mid-record and was
	// truncated to its intact prefix.
	TornTail bool
}

// Log is one node's write-ahead commit log. All methods are safe for
// concurrent use.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File
	buf     *bytes.Buffer // pending (unflushed) frames
	scratch []byte        // reusable binary record-frame staging buffer
	size    int64         // bytes written to the active segment
	segIdx  uint64        // active segment index
	pending []chan error  // Append waiters for the next fsync
	closed  bool

	syncKick      chan struct{}
	syncDone      chan struct{}
	recsSinceSnap atomic.Uint64

	appends  atomic.Uint64
	records  atomic.Uint64
	fsyncs   atomic.Uint64
	maxBatch atomic.Uint64
	snaps    atomic.Uint64
	removed  atomic.Uint64

	// Slow-disk fault injection (tests only; both zero in production).
	// syncDelay stalls every fsync by the given nanoseconds while holding
	// l.mu — exactly the shape of a degrading disk: appends queue behind the
	// slow flush and commit latency balloons without any call failing.
	// syncFailEvery makes every Nth fsync report an I/O error.
	syncDelay     atomic.Int64
	syncFailEvery atomic.Int64

	replayedRecords uint64
	replayedSnap    uint64
	tornTail        bool
}

// Open opens (creating if necessary) the WAL in dir, runs recovery, and
// returns the log ready for appends plus the recovered object state.
func Open(dir string, opts Options) (*Log, *Recovered, error) {
	opts.fillDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	l := &Log{
		dir:      dir,
		opts:     opts,
		buf:      new(bytes.Buffer),
		syncKick: make(chan struct{}, 1),
		syncDone: make(chan struct{}),
	}
	rec, err := l.recover()
	if err != nil {
		return nil, nil, err
	}
	if err := l.openActiveSegment(); err != nil {
		return nil, nil, err
	}
	go l.syncLoop()
	return l, rec, nil
}

// recover loads the newest valid snapshot and replays later segments.
func (l *Log) recover() (*Recovered, error) {
	state := make(map[store.ObjectID]store.WriteDesc)
	apply := func(w store.WriteDesc) {
		if cur, ok := state[w.ID]; !ok || w.NewVersion > cur.NewVersion {
			state[w.ID] = w
		}
	}
	// 2PC state: a prepare with no later decision is in-doubt; decisions are
	// kept so peer status queries after restart can be answered.
	prepares := make(map[string]int) // TxID -> index into inDoubt
	var inDoubt []Record
	decided := make(map[string]bool)

	// Newest CRC-valid snapshot wins; corrupt ones (e.g. a crash between
	// temp-file write and rename never happens thanks to the rename, but a
	// disk error can still bit-rot a file) fall back to older snapshots. A
	// gob-era snapshot is NOT skipped: the segments it covered are already
	// compacted away, so falling back would silently lose commits.
	var snapIdx uint64
	snapIdxs, err := listIndexed(l.dir, snapshotPrefix, snapshotSuffix)
	if err != nil {
		return nil, err
	}
	rec := &Recovered{}
	for i := len(snapIdxs) - 1; i >= 0; i-- {
		objs, err := ReadSnapshot(snapshotPath(l.dir, snapIdxs[i]))
		var legacy *LegacyFormatError
		if errors.As(err, &legacy) {
			return nil, err
		}
		if err != nil {
			continue
		}
		for _, w := range objs {
			apply(w)
		}
		snapIdx = snapIdxs[i]
		rec.SnapshotObjects = len(objs)
		break
	}

	segIdxs, err := listIndexed(l.dir, segmentPrefix, segmentSuffix)
	if err != nil {
		return nil, err
	}
	for i, idx := range segIdxs {
		if idx < snapIdx {
			continue // fully covered by the snapshot; compaction leftovers
		}
		path := segmentPath(l.dir, idx)
		n, err := ScanSegment(path, func(r *Record, _ int64) error {
			switch r.Type {
			case RecordPrepare:
				// A prepare landing after its decision in the log (an append
				// that raced the decision) has a known outcome: it must not be
				// resurrected as in-doubt, or its protections would be
				// re-installed with nothing left to release them.
				if _, done := decided[r.TxID]; done {
					break
				}
				if _, dup := prepares[r.TxID]; !dup {
					prepares[r.TxID] = len(inDoubt)
					inDoubt = append(inDoubt, *r)
				}
			case RecordDecision:
				decided[r.TxID] = r.Commit
				if i, ok := prepares[r.TxID]; ok {
					inDoubt[i].TxID = "" // tombstone; filtered below
					delete(prepares, r.TxID)
				}
			default:
				apply(store.WriteDesc{ID: r.Key, Value: r.Value, NewVersion: r.Version, Block: r.Block})
			}
			return nil
		})
		rec.LogRecords += n
		if err != nil {
			// Crash mid-append (or a CRC-valid but malformed binary record)
			// in the final segment: keep the intact prefix, drop the tail. A
			// gob-era record is never truncated — it falls through to the
			// error below.
			var torn *TornTailError
			var bad *BadRecordError
			tail := int64(-1)
			if errors.As(err, &torn) {
				tail = torn.Offset
			} else if errors.As(err, &bad) {
				tail = bad.Offset
			}
			if tail >= 0 && i == len(segIdxs)-1 {
				if terr := os.Truncate(path, tail); terr != nil {
					return nil, terr
				}
				rec.TornTail = true
				break
			}
			return nil, fmt.Errorf("wal: segment %s: %w", path, err)
		}
		l.segIdx = idx
	}
	if len(segIdxs) > 0 {
		l.segIdx = segIdxs[len(segIdxs)-1]
	}

	rec.Objects = make([]store.WriteDesc, 0, len(state))
	for _, w := range state {
		rec.Objects = append(rec.Objects, w)
	}
	for _, p := range inDoubt {
		if p.TxID != "" {
			rec.InDoubt = append(rec.InDoubt, p)
		}
	}
	if len(decided) > 0 {
		rec.Decided = decided
	}
	l.replayedRecords = uint64(rec.LogRecords)
	l.replayedSnap = uint64(rec.SnapshotObjects)
	l.tornTail = rec.TornTail
	return rec, nil
}

// openActiveSegment starts a fresh segment after recovery (never appends to
// a truncated file, so a second crash can only tear the new segment).
func (l *Log) openActiveSegment() error {
	l.segIdx++
	f, err := os.OpenFile(segmentPath(l.dir, l.segIdx), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.size = 0
	return nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:           l.appends.Load(),
		Records:           l.records.Load(),
		Fsyncs:            l.fsyncs.Load(),
		MaxBatch:          l.maxBatch.Load(),
		Snapshots:         l.snaps.Load(),
		SegmentsRemoved:   l.removed.Load(),
		ReplayedRecords:   l.replayedRecords,
		ReplayedSnapshot:  l.replayedSnap,
		TornTailTruncated: l.tornTail,
	}
}

// RecordsSinceSnapshot reports appends since the last checkpoint, the
// trigger input for automatic snapshots.
func (l *Log) RecordsSinceSnapshot() uint64 { return l.recsSinceSnap.Load() }

// SetSyncDelay injects a stall of d into every subsequent fsync (0 clears
// it). The sleep happens while holding the log mutex, so appends queue
// behind it exactly as they would behind a degrading disk. Test-only.
func (l *Log) SetSyncDelay(d time.Duration) { l.syncDelay.Store(int64(d)) }

// SetSyncFailEvery makes every Nth fsync report an injected I/O error to all
// appends in that batch (0 clears it). The data was still written and
// synced, modelling a disk that flushes but answers with errors — appenders
// must treat the batch as failed. Test-only.
func (l *Log) SetSyncFailEvery(n int64) { l.syncFailEvery.Store(n) }

// Append durably logs one commit's records: it stages the frames, then
// blocks until the batched fsync covering them completes. On return the
// records survive any crash. Safe for concurrent use; concurrent appends
// share one fsync (group commit).
func (l *Log) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	ch := make(chan error, 1)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	start := l.buf.Len()
	for i := range recs {
		if err := l.stageRecordLocked(&recs[i]); err != nil {
			l.buf.Truncate(start)
			l.mu.Unlock()
			return err
		}
	}
	l.records.Add(uint64(len(recs)))
	l.recsSinceSnap.Add(uint64(len(recs)))
	l.appends.Add(1)
	l.pending = append(l.pending, ch)
	if l.opts.FsyncInterval < 0 {
		// Degenerate mode: sync inline, no batching.
		err := l.syncLocked()
		l.mu.Unlock()
		if err != nil {
			return err
		}
		return <-ch
	}
	l.mu.Unlock()
	// Nudge the syncer so an idle log doesn't wait a full interval.
	select {
	case l.syncKick <- struct{}{}:
	default:
	}
	return <-ch
}

// stageRecordLocked appends one framed record to the staging buffer. It
// reuses a scratch buffer, so steady-state staging performs no per-record
// allocation. Callers hold l.mu.
func (l *Log) stageRecordLocked(rec *Record) error {
	frame, err := AppendRecordFrame(l.scratch[:0], rec)
	if err != nil {
		return fmt.Errorf("wal: encode record: %w", err)
	}
	l.scratch = frame
	_, err = l.buf.Write(frame)
	return err
}

// syncLocked flushes staged frames to the active segment, fsyncs, notifies
// all waiters, and rolls the segment if it crossed the size threshold.
// Callers hold l.mu.
func (l *Log) syncLocked() error {
	if len(l.pending) == 0 && l.buf.Len() == 0 {
		return nil
	}
	waiters := l.pending
	l.pending = nil
	var err error
	if l.buf.Len() > 0 {
		var n int
		n, err = l.f.Write(l.buf.Bytes())
		l.size += int64(n)
		l.buf.Reset()
	}
	if err == nil {
		if d := l.syncDelay.Load(); d > 0 {
			// Injected slow disk: sleep under l.mu so appends pile up behind
			// the stalled flush, as they would behind real hardware.
			time.Sleep(time.Duration(d))
		}
		err = l.f.Sync()
		l.fsyncs.Add(1)
		if err == nil {
			if every := l.syncFailEvery.Load(); every > 0 && l.fsyncs.Load()%uint64(every) == 0 {
				err = errInjectedSyncFailure
			}
		}
		if b := uint64(len(waiters)); b > l.maxBatch.Load() {
			l.maxBatch.Store(b)
		}
	}
	for _, ch := range waiters {
		ch <- err
	}
	if err == nil && l.size >= l.opts.SegmentSize {
		err = l.rollLocked()
	}
	return err
}

// rollLocked closes the active segment and opens the next one. The active
// segment is already flushed and synced by syncLocked.
func (l *Log) rollLocked() error {
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.openActiveSegment()
}

// syncLoop is the group-commit daemon. It sleeps until an append kicks it,
// then waits one accumulation window (FsyncInterval) so concurrent
// appenders can stage their frames, then flushes and fsyncs them all at
// once. An idle log costs nothing: no periodic wakeups.
func (l *Log) syncLoop() {
	for {
		select {
		case <-l.syncKick:
		case <-l.syncDone:
			return
		}
		timer := time.NewTimer(l.opts.FsyncInterval)
		select {
		case <-timer.C:
		case <-l.syncDone:
			timer.Stop()
			return
		}
		timer.Stop()
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return
		}
		_ = l.syncLocked()
		l.mu.Unlock()
	}
}

// Checkpoint writes a snapshot of the given object state, rolls to a fresh
// segment, and compacts: segments and snapshots fully covered by the new
// snapshot are deleted. The caller must guarantee objs reflects at least
// every record appended and synced before the call (the server guards the
// append→apply window with a commit lock).
//
// keep records (live in-doubt prepares and decided outcomes, which the
// snapshot's object state does not capture) are carried across the
// compaction atomically: they are appended to the fresh active segment and
// fsynced BEFORE any old segment is removed, so there is no crash window in
// which a durable promise exists only in segments that are already gone.
func (l *Log) Checkpoint(objs []store.WriteDesc, keep ...Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	// Make everything staged durable, then roll so the snapshot covers
	// every segment before the new active one.
	if err := l.syncLocked(); err != nil {
		return err
	}
	if l.size > 0 {
		if err := l.rollLocked(); err != nil {
			return err
		}
	}
	snapIdx := l.segIdx // covers all segments < segIdx
	if len(keep) > 0 {
		start := l.buf.Len()
		for i := range keep {
			if err := l.stageRecordLocked(&keep[i]); err != nil {
				l.buf.Truncate(start)
				return err
			}
		}
		l.records.Add(uint64(len(keep)))
		// Durability point of the carry-over: fsynced into segment snapIdx
		// (which replay visits — only segments below the snapshot index are
		// skipped) while every old segment still exists. A crash at any
		// point from here on recovers the kept records from one side or the
		// other; duplicates replay idempotently.
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	if err := writeSnapshotFile(l.dir, snapIdx, objs); err != nil {
		return err
	}
	l.snaps.Add(1)
	l.recsSinceSnap.Store(0)

	// Compaction: older segments and snapshots are now redundant.
	if segIdxs, err := listIndexed(l.dir, segmentPrefix, segmentSuffix); err == nil {
		for _, idx := range segIdxs {
			if idx < snapIdx {
				if os.Remove(segmentPath(l.dir, idx)) == nil {
					l.removed.Add(1)
				}
			}
		}
	}
	if snapIdxs, err := listIndexed(l.dir, snapshotPrefix, snapshotSuffix); err == nil {
		for _, idx := range snapIdxs {
			if idx < snapIdx {
				_ = os.Remove(snapshotPath(l.dir, idx))
			}
		}
	}
	return syncDir(l.dir)
}

// Close flushes, fsyncs, and closes the log. Pending appends complete.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.syncLocked()
	l.closed = true
	close(l.syncDone)
	cerr := l.f.Close()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return cerr
}

// Crash simulates a process crash: the log is abandoned WITHOUT flushing
// staged frames, so records not yet covered by an fsync are lost exactly as
// they would be on a real kill. Used by fault-injection harnesses.
func (l *Log) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	close(l.syncDone)
	// Fail pending waiters: their commits were never made durable.
	for _, ch := range l.pending {
		ch <- ErrClosed
	}
	l.pending = nil
	l.buf.Reset()
	_ = l.f.Close()
}
