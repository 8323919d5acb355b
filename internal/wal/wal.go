// Package wal implements the serving engine's write-ahead log: an
// append-only sequence of opaque payload records stored in segment
// files, designed so a crashed process can replay exactly what it had
// ingested.
//
// On-disk layout: the log directory holds segment files named
// "<first-seq>.wal" (20-digit decimal). Each record is
//
//	u32 payload length | u32 CRC-32 (IEEE) of seq+payload | u64 seq | payload
//
// (little endian). Sequence numbers are assigned by Append, strictly
// increasing across the whole log (gaps are legal: recovery may reserve
// sequence numbers already captured by a snapshot).
//
// Durability is batched ("group commit"): Append issues the write
// syscall immediately — a process crash loses nothing the OS accepted —
// but fsync happens only every SyncEvery records or SyncInterval,
// whichever comes first, so a power failure can lose at most one batch.
//
// A torn tail (partial final write after a crash) is detected by the
// length/CRC framing on Open and truncated away; everything before it
// replays normally. Torn records can only ever be at the very tail of
// the last segment because rotation fsyncs a segment before opening the
// next one.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"orfdisk/internal/metrics"
)

const (
	headerSize = 16       // u32 len + u32 crc + u64 seq
	maxRecord  = 16 << 20 // sanity cap on payload length
	segSuffix  = ".wal"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: closed")

// Options configures Open. Zero values select defaults.
type Options struct {
	// Dir is the log directory (created if absent). Required.
	Dir string
	// SegmentBytes rotates to a new segment file when the current one
	// would exceed this size. Default 8 MiB.
	SegmentBytes int64
	// SyncEvery forces an fsync after this many appended records.
	// Default 64.
	SyncEvery int
	// SyncInterval is the maximum time an appended record stays
	// unsynced (enforced by a background flusher). Default 50 ms.
	SyncInterval time.Duration
	// Metrics receives the log's instrumentation (wal_* families). Nil
	// registers into a private registry: the log is always counted, a
	// caller just can't scrape it.
	Metrics *metrics.Registry
}

func (o *Options) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 64
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 50 * time.Millisecond
	}
}

// WAL is an open write-ahead log. Append, Sync, TruncateBefore and
// Close are safe for concurrent use. Replay must complete before the
// first Append.
// walMetrics is the log's instrument set; see Open for the names.
type walMetrics struct {
	appendRecords *metrics.Counter
	appendBytes   *metrics.Counter
	fsyncs        *metrics.Counter
	fsyncSeconds  *metrics.Histogram
	rotations     *metrics.Counter
	segments      *metrics.Gauge
}

func newWALMetrics(reg *metrics.Registry) walMetrics {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return walMetrics{
		appendRecords: reg.Counter("wal_append_records_total", "Records appended to the write-ahead log."),
		appendBytes:   reg.Counter("wal_append_bytes_total", "Bytes appended to the write-ahead log (headers included)."),
		fsyncs:        reg.Counter("wal_fsync_total", "fsync calls issued by the write-ahead log."),
		fsyncSeconds:  reg.Histogram("wal_fsync_seconds", "Write-ahead log fsync latency in seconds."),
		rotations:     reg.Counter("wal_segment_rotations_total", "Write-ahead log segment rotations."),
		segments:      reg.Gauge("wal_segments", "Live write-ahead log segment files."),
	}
}

type WAL struct {
	opts Options
	met  walMetrics

	mu       sync.Mutex
	f        *os.File // current (last) segment, positioned at its end
	segStart uint64   // name of the current segment
	size     int64    // current segment size
	nextSeq  uint64
	dirty    int // records written since last fsync
	closed   bool

	// syncedSeq is the newest sequence number covered by an fsync.
	// Records above it exist only in the OS page cache: a power failure
	// can still lose them, so replication must not ship them — a leader
	// restart would reuse their sequence numbers for different records
	// and silently diverge any follower that had already applied the
	// originals.
	syncedSeq uint64

	// retainFloor, when non-zero, pins TruncateBefore: records with
	// sequence numbers >= retainFloor are never truncated. Replication
	// sets it to the lowest follower-acknowledged position so a snapshot
	// cannot delete segments an attached follower still needs.
	retainFloor uint64

	// watchers are append-notification channels handed out by Watch.
	watchers []chan struct{}

	stop chan struct{}
	done chan struct{}

	scratch []byte
}

type segment struct {
	firstSeq uint64
	path     string
}

// Open opens (or creates) the log in opts.Dir, truncating any torn
// tail left by a crash, and positions it to append after the last
// valid record.
func Open(opts Options) (*WAL, error) {
	opts.fill()
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	w := &WAL{
		opts: opts,
		met:  newWALMetrics(opts.Metrics),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	w.met.segments.Set(float64(max(len(segs), 1)))
	if len(segs) == 0 {
		w.nextSeq = 1
		if err := w.createSegment(1); err != nil {
			return nil, err
		}
	} else {
		// Truncate a torn tail off the last segment and find the next
		// sequence number, falling back over empty trailing segments.
		last := segs[len(segs)-1]
		res, err := scanSegment(last, nil)
		if err != nil {
			return nil, err
		}
		if res.validEnd < res.fileSize {
			if err := os.Truncate(last.path, res.validEnd); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", last.path, err)
			}
		}
		w.nextSeq = last.firstSeq
		if res.count > 0 {
			w.nextSeq = res.lastSeq + 1
		} else {
			for i := len(segs) - 2; i >= 0; i-- {
				r, err := scanSegment(segs[i], nil)
				if err != nil {
					return nil, err
				}
				if r.validEnd < r.fileSize {
					return nil, fmt.Errorf("wal: corrupt non-final segment %s", segs[i].path)
				}
				if r.count > 0 {
					w.nextSeq = r.lastSeq + 1
					break
				}
			}
		}
		f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		w.f, w.segStart, w.size = f, last.firstSeq, res.validEnd
	}
	// Everything recovery can see is on disk; the new process's
	// durability story starts exactly there.
	w.syncedSeq = w.nextSeq - 1
	go w.flusher()
	return w, nil
}

func (w *WAL) flusher() {
	defer close(w.done)
	t := time.NewTicker(w.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.mu.Lock()
			if !w.closed {
				w.syncLocked()
			}
			w.mu.Unlock()
		}
	}
}

// Append writes one record and returns its sequence number. The record
// has reached the OS when Append returns; it is fsync-durable within
// one group-commit batch (SyncEvery / SyncInterval).
func (w *WAL) Append(payload []byte) (uint64, error) {
	if len(payload) > maxRecord {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds cap", len(payload))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	seq := w.nextSeq
	if err := w.appendLocked(seq, payload); err != nil {
		return 0, err
	}
	w.nextSeq = seq + 1
	w.notifyLocked()
	return seq, nil
}

// AppendAt writes one record with a caller-chosen sequence number, which
// must be at or above the next unused one (gaps are legal; going
// backwards is not). Follower replicas use it to mirror the leader's
// sequence numbering into their own log, so a follower's snapshots, WAL
// replay, and replication-resume position all speak leader offsets.
func (w *WAL) AppendAt(seq uint64, payload []byte) error {
	if len(payload) > maxRecord {
		return fmt.Errorf("wal: record of %d bytes exceeds cap", len(payload))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if seq < w.nextSeq {
		return fmt.Errorf("wal: AppendAt(%d) behind next sequence %d", seq, w.nextSeq)
	}
	w.nextSeq = seq // segment rotation names the new file after nextSeq
	if err := w.appendLocked(seq, payload); err != nil {
		return err
	}
	w.nextSeq = seq + 1
	w.notifyLocked()
	return nil
}

// appendLocked frames and writes one record with the given sequence
// number. The caller holds w.mu, has checked closed/size caps, and has
// set w.nextSeq == seq (rotation uses it to name a fresh segment).
func (w *WAL) appendLocked(seq uint64, payload []byte) error {
	rec := headerSize + len(payload)
	if w.size > 0 && w.size+int64(rec) > w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	if cap(w.scratch) < rec {
		w.scratch = make([]byte, rec)
	}
	buf := w.scratch[:rec]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(buf[8:16], seq)
	copy(buf[16:], payload)
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(buf[8:]))
	if _, err := w.f.Write(buf); err != nil {
		return err
	}
	w.size += int64(rec)
	w.dirty++
	w.met.appendRecords.Inc()
	w.met.appendBytes.Add(uint64(rec))
	if w.dirty >= w.opts.SyncEvery {
		return w.syncLocked()
	}
	return nil
}

// AppendBatch writes len(payloads) records with consecutive sequence
// numbers and returns the first. The batch is framed into one buffer and
// issued as a single write syscall, and the group-commit check runs once
// for the whole batch, so a shard ingesting N records pays the
// lock/write/sync bookkeeping once instead of N times. Records never
// split across segments: at most one rotation happens, before the batch.
// Replay of an AppendBatch is indistinguishable from N single Appends.
func (w *WAL) AppendBatch(payloads [][]byte) (first uint64, err error) {
	if len(payloads) == 0 {
		return 0, errors.New("wal: empty batch")
	}
	total := 0
	for _, p := range payloads {
		if len(p) > maxRecord {
			return 0, fmt.Errorf("wal: record of %d bytes exceeds cap", len(p))
		}
		total += headerSize + len(p)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if w.size > 0 && w.size+int64(total) > w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	first = w.nextSeq
	if cap(w.scratch) < total {
		w.scratch = make([]byte, total)
	}
	buf := w.scratch[:0]
	for i, p := range payloads {
		off := len(buf)
		buf = buf[:off+headerSize+len(p)]
		rec := buf[off:]
		binary.LittleEndian.PutUint32(rec[0:4], uint32(len(p)))
		binary.LittleEndian.PutUint64(rec[8:16], first+uint64(i))
		copy(rec[16:], p)
		binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(rec[8:]))
	}
	if _, err := w.f.Write(buf); err != nil {
		return 0, err
	}
	w.size += int64(total)
	w.nextSeq += uint64(len(payloads))
	w.dirty += len(payloads)
	w.met.appendRecords.Add(uint64(len(payloads)))
	w.met.appendBytes.Add(uint64(total))
	if w.dirty >= w.opts.SyncEvery {
		if err := w.syncLocked(); err != nil {
			return 0, err
		}
	}
	w.notifyLocked()
	return first, nil
}

// Watch returns a channel that receives a (coalesced) signal after every
// append, so a tailer can sleep until new records may exist instead of
// polling. Release it with Unwatch.
func (w *WAL) Watch() <-chan struct{} {
	ch := make(chan struct{}, 1)
	w.mu.Lock()
	w.watchers = append(w.watchers, ch)
	w.mu.Unlock()
	return ch
}

// Unwatch releases a channel obtained from Watch.
func (w *WAL) Unwatch(ch <-chan struct{}) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, c := range w.watchers {
		if c == ch {
			w.watchers = append(w.watchers[:i], w.watchers[i+1:]...)
			return
		}
	}
}

func (w *WAL) notifyLocked() {
	for _, ch := range w.watchers {
		select {
		case ch <- struct{}{}:
		default: // a pending signal already covers this append
		}
	}
}

// SetRetainFloor pins truncation: records with sequence numbers >= seq
// survive TruncateBefore regardless of its cutoff. Zero clears the
// floor. Replication holds the floor at the lowest position an attached
// follower has acknowledged.
func (w *WAL) SetRetainFloor(seq uint64) {
	w.mu.Lock()
	w.retainFloor = seq
	w.mu.Unlock()
}

// Dir returns the log directory (for cursors and backup tooling).
func (w *WAL) Dir() string { return w.opts.Dir }

// OldestSegment returns the first sequence number of the oldest retained
// segment file — a lower bound on the oldest replayable record, used by
// replication to refuse resume positions that truncation has passed.
func (w *WAL) OldestSegment() (uint64, error) {
	segs, err := listSegments(w.opts.Dir)
	if err != nil {
		return 0, err
	}
	if len(segs) == 0 {
		return 0, errors.New("wal: no segments")
	}
	return segs[0].firstSeq, nil
}

// Sync forces any unsynced records to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	if w.dirty == 0 {
		w.syncedSeq = w.nextSeq - 1
		return nil
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.met.fsyncs.Inc()
	w.met.fsyncSeconds.Observe(time.Since(start).Seconds())
	w.dirty = 0
	w.syncedSeq = w.nextSeq - 1
	// Wake tailers: replication gates shipping on durability, so an
	// fsync (not just an append) can make records shippable.
	w.notifyLocked()
	return nil
}

// SealTail fsyncs the active segment and reports a consistent cut of
// the log for a state transfer: the active segment's first sequence
// number, its durable byte size at the cut, and the newest durable
// sequence number. A seed streamer that ships the non-tail segments in
// full plus the first tailSize bytes of the tail transfers exactly the
// records through head, even while appends continue past the cut.
func (w *WAL) SealTail() (tailStart uint64, tailSize int64, head uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, 0, 0, ErrClosed
	}
	if err := w.syncLocked(); err != nil {
		return 0, 0, 0, err
	}
	return w.segStart, w.size, w.syncedSeq, nil
}

func (w *WAL) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	if err := w.createSegment(w.nextSeq); err != nil {
		return err
	}
	w.met.rotations.Inc()
	w.met.segments.Inc()
	return nil
}

func (w *WAL) createSegment(firstSeq uint64) error {
	path := filepath.Join(w.opts.Dir, segName(firstSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w.f, w.segStart, w.size, w.dirty = f, firstSeq, 0, 0
	return nil
}

// NextSeq returns the sequence number the next Append will use.
func (w *WAL) NextSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq
}

// SyncedSeq returns the newest sequence number guaranteed durable by an
// fsync. Appended-but-unsynced records are above it; replication ships
// nothing beyond it, so a crash of this process can never retract a
// record a follower already holds.
func (w *WAL) SyncedSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncedSeq
}

// SkipTo raises the next sequence number to at least seq. Recovery uses
// it so records subsumed by a newer snapshot never share a sequence
// number with future appends. Call before the first Append.
func (w *WAL) SkipTo(seq uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if seq > w.nextSeq {
		w.nextSeq = seq
	}
}

// TruncateBefore deletes whole segments all of whose records have
// sequence numbers < seq (typically seq = snapshot cutoff + 1). The
// active segment is never deleted, so truncation is approximate in the
// conservative direction. A retain floor (SetRetainFloor) caps the
// effective cutoff.
func (w *WAL) TruncateBefore(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.retainFloor != 0 && w.retainFloor < seq {
		seq = w.retainFloor
	}
	segs, err := listSegments(w.opts.Dir)
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(segs); i++ {
		// Every record in segment i is < segs[i+1].firstSeq.
		if segs[i].firstSeq == w.segStart || segs[i+1].firstSeq > seq {
			break
		}
		if err := os.Remove(segs[i].path); err != nil {
			return err
		}
		w.met.segments.Dec()
	}
	return nil
}

// Replay calls fn for every valid record, in order. A torn tail on the
// last segment ends replay silently (Open has normally truncated it
// already); a bad record anywhere else is reported as corruption.
// Replay must complete before the first Append.
func (w *WAL) Replay(fn func(seq uint64, payload []byte) error) error {
	segs, err := listSegments(w.opts.Dir)
	if err != nil {
		return err
	}
	for i, s := range segs {
		res, err := scanSegment(s, fn)
		if err != nil {
			return err
		}
		if res.validEnd < res.fileSize && i != len(segs)-1 {
			return fmt.Errorf("wal: corrupt record in non-final segment %s", s.path)
		}
	}
	return nil
}

// Close syncs and closes the log.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.mu.Unlock()
	close(w.stop)
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	// Sync only when records are actually unsynced: the old code issued
	// an unconditional fsync and then discarded its error whenever
	// dirty == 0, which both wasted a syscall on every clean shutdown
	// and conflated "nothing to sync" with "sync failed".
	serr := w.syncLocked()
	cerr := w.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

type scanResult struct {
	validEnd int64 // offset just past the last valid record
	fileSize int64
	lastSeq  uint64
	count    int
}

// scanBufferBytes sizes the read buffer scanSegment puts in front of a
// segment file: one read syscall fetches hundreds of records instead of
// two syscalls per record.
const scanBufferBytes = 256 << 10

// scanSegment walks a segment's records, calling fn (if non-nil) for
// each valid one, and stops at the first torn/corrupt record. Only I/O
// errors are returned as errors; framing damage shows up as
// validEnd < fileSize. The payload handed to fn is only valid for the
// duration of the call.
func scanSegment(s segment, fn func(uint64, []byte) error) (scanResult, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return scanResult{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return scanResult{}, err
	}
	res := scanResult{fileSize: fi.Size()}
	r := bufio.NewReaderSize(f, int(min(res.fileSize, scanBufferBytes)))
	var (
		head [headerSize]byte
		prev uint64
		buf  []byte
	)
	for {
		if _, err := io.ReadFull(r, head[:]); err != nil {
			// Clean EOF or a partial header: end of valid data.
			return res, nil
		}
		n := binary.LittleEndian.Uint32(head[0:4])
		crc := binary.LittleEndian.Uint32(head[4:8])
		seq := binary.LittleEndian.Uint64(head[8:16])
		if n > maxRecord {
			return res, nil
		}
		if cap(buf) < int(n)+8 {
			buf = make([]byte, int(n)+8)
		}
		body := buf[:int(n)+8]
		copy(body[:8], head[8:16])
		if _, err := io.ReadFull(r, body[8:]); err != nil {
			return res, nil
		}
		if crc32.ChecksumIEEE(body) != crc {
			return res, nil
		}
		if res.count > 0 && seq <= prev {
			return res, nil
		}
		if fn != nil {
			if err := fn(seq, body[8:]); err != nil {
				return res, err
			}
		}
		prev = seq
		res.count++
		res.lastSeq = seq
		res.validEnd += int64(headerSize) + int64(n)
	}
}

func segName(firstSeq uint64) string {
	return fmt.Sprintf("%020d%s", firstSeq, segSuffix)
}

func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, segment{firstSeq: seq, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}
