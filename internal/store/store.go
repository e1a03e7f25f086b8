// Package store is the persistent result database behind lrcsimd -store
// and paperbench -cache: an indexed, append-only segment store keyed by
// job fingerprint, and the one implementation of runner.ResultStore.
//
// Layout: a directory of numbered segment files (000001.seg, ...), each
// a sequence of JSON lines — one runner.Result per line — plus a LOCK
// file. Writes go to offsets this process tracks in memory, so a
// directory admits one open handle at a time: Open takes an exclusive
// advisory lock on LOCK (released by Close, or by the kernel if the
// process dies) and a second opener is refused instead of silently
// overwriting the first one's lines. Writes append to the newest
// segment and roll to a fresh one past a size threshold, so no file
// grows without bound. An in-memory index maps fingerprint → (segment,
// offset, length); reads are a single pread, and the store never holds
// result payloads in memory.
//
// Recovery is self-healing: a line that fails to parse — a torn write,
// a manual edit, a truncated tail — is skipped and counted, never fatal.
// A torn tail on the newest segment is additionally sealed with a
// newline so later appends cannot fuse with the wreckage. When the same
// fingerprint appears more than once (a re-put, or a crash between
// append and compaction), the latest line wins.
//
// Compaction rewrites every live entry into one fresh segment and
// deletes the rest. It is crash-safe by ordering: the compacted segment
// is built in a temp file, fsynced, and renamed into place as the
// *newest* segment before any old segment is removed — a crash at any
// point leaves either the old segments, or both (where newest-wins makes
// the duplicates harmless).
package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"

	"lazyrc/internal/runner"
)

// DefaultSegmentBytes is the roll-over threshold for the active segment.
const DefaultSegmentBytes = 8 << 20

// tmpName is the in-progress compaction file, ignored (and removed) on
// open; lockName is the file carrying the single-writer lock.
const (
	tmpName  = "compact.tmp"
	lockName = "LOCK"
)

// loc addresses one result line inside a segment.
type loc struct {
	seg int
	off int64
	n   int
}

// Store is the segment store. One handle is safe for concurrent use
// within its process; the directory lock keeps every other handle out.
type Store struct {
	dir    string
	maxSeg int64
	lock   *os.File

	mu          sync.Mutex
	idx         map[string]loc
	segs        map[int]*os.File
	activeID    int
	activeSize  int64
	liveBytes   int64
	totalBytes  int64
	dropped     int
	compactions int
	appends     uint64
	lookups     uint64
	misses      uint64
	writeErr    error
	closed      bool
}

// Open loads (or creates) the store rooted at dir and locks it; it fails
// if another handle — in this or any other process — holds the directory.
func Open(dir string) (*Store, error) { return open(dir, DefaultSegmentBytes) }

// open is Open with the active-segment roll-over threshold exposed (the
// tests rotate at a few hundred bytes).
func open(dir string, maxSeg int64) (*Store, error) {
	s := &Store{
		dir:    dir,
		maxSeg: maxSeg,
		idx:    make(map[string]loc),
		segs:   make(map[int]*os.File),
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, lockName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening lock file: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("store: %s is already open in another process or handle (single writer): %w", dir, err)
	}
	s.lock = lock
	os.Remove(filepath.Join(dir, tmpName)) // abandoned compaction, if any

	ids, err := segmentIDs(dir)
	if err != nil {
		s.closeAll()
		return nil, err
	}
	if len(ids) == 0 {
		ids = []int{1}
	}
	for i, id := range ids {
		last := i == len(ids)-1
		if err := s.openSegment(id, last); err != nil {
			s.closeAll()
			return nil, err
		}
	}
	s.activeID = ids[len(ids)-1]
	return s, nil
}

// segmentIDs lists the numbered segments in dir, ascending.
func segmentIDs(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", dir, err)
	}
	var ids []int
	for _, e := range entries {
		var id int
		if n, _ := fmt.Sscanf(e.Name(), "%d.seg", &id); n == 1 && e.Name() == segName(id) {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, nil
}

func segName(id int) string { return fmt.Sprintf("%06d.seg", id) }

func (s *Store) segPath(id int) string { return filepath.Join(s.dir, segName(id)) }

// openSegment opens one segment (read-write for the newest, read-only
// otherwise), scans it into the index, and seals a torn tail on the
// newest.
func (s *Store) openSegment(id int, active bool) error {
	flags := os.O_RDONLY
	if active {
		flags = os.O_RDWR | os.O_CREATE
	}
	f, err := os.OpenFile(s.segPath(id), flags, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening segment %s: %w", segName(id), err)
	}
	size, torn, err := s.scanSegment(f, id)
	if err != nil {
		f.Close()
		return err
	}
	if torn {
		if active {
			// Seal the torn tail so the next append starts a fresh
			// line instead of fusing with the wreckage.
			if _, err := f.WriteAt([]byte("\n"), size); err != nil {
				f.Close()
				return fmt.Errorf("store: sealing torn tail of %s: %w", segName(id), err)
			}
			size++
		}
		s.dropped++
	}
	s.segs[id] = f
	s.totalBytes += size
	if active {
		s.activeSize = size
	}
	return nil
}

// scanSegment indexes every parseable line of a segment, returning the
// byte size of complete lines and whether a torn (newline-less) tail
// follows them.
func (s *Store) scanSegment(f *os.File, id int) (size int64, torn bool, err error) {
	data, err := os.ReadFile(f.Name())
	if err != nil {
		return 0, false, fmt.Errorf("store: scanning %s: %w", f.Name(), err)
	}
	off := int64(0)
	for off < int64(len(data)) {
		i := bytes.IndexByte(data[off:], '\n')
		if i < 0 {
			return off, true, nil // torn tail: bytes past off are incomplete
		}
		nl := off + int64(i)
		line := data[off:nl]
		if len(line) > 0 {
			var r runner.Result
			if uerr := json.Unmarshal(line, &r); uerr != nil || r.Fingerprint == "" {
				s.dropped++
			} else {
				s.index(r.Fingerprint, loc{seg: id, off: off, n: len(line)})
			}
		}
		off = nl + 1
	}
	return off, false, nil
}

// index records a fingerprint's latest location, maintaining the
// live-byte account.
func (s *Store) index(fp string, l loc) {
	if old, ok := s.idx[fp]; ok {
		s.liveBytes -= int64(old.n)
	}
	s.idx[fp] = l
	s.liveBytes += int64(l.n)
}

// Get returns the stored result for a fingerprint. Each call unmarshals
// a private copy from disk, so callers may annotate it freely.
func (s *Store) Get(fp string) (*runner.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lookups++
	line, ok := s.readLocked(fp)
	if !ok {
		s.misses++
		return nil, false
	}
	var r runner.Result
	if err := json.Unmarshal(line, &r); err != nil {
		s.misses++
		return nil, false
	}
	return &r, true
}

// readLocked fetches the raw line for a fingerprint. Caller holds mu.
func (s *Store) readLocked(fp string) ([]byte, bool) {
	l, ok := s.idx[fp]
	if !ok {
		return nil, false
	}
	f, ok := s.segs[l.seg]
	if !ok {
		return nil, false
	}
	buf := make([]byte, l.n)
	if _, err := f.ReadAt(buf, l.off); err != nil {
		return nil, false
	}
	return buf, true
}

// Put appends a result, rolling to a new segment past the size
// threshold. Failed (crashed) results are refused — caching them would
// make the crash permanent instead of retryable.
func (s *Store) Put(r *runner.Result) error {
	if r.Failed() {
		return fmt.Errorf("store: refusing to cache failed job %s", r.Fingerprint)
	}
	if r.Fingerprint == "" {
		return fmt.Errorf("store: result has no fingerprint")
	}
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("store: encoding result: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if s.activeSize > 0 && s.activeSize+int64(len(line))+1 > s.maxSeg {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	f := s.segs[s.activeID]
	off := s.activeSize
	if _, err := f.WriteAt(append(line, '\n'), off); err != nil {
		s.writeErr = err
		return fmt.Errorf("store: appending to %s: %w", segName(s.activeID), err)
	}
	s.activeSize += int64(len(line)) + 1
	s.totalBytes += int64(len(line)) + 1
	s.appends++
	s.index(r.Fingerprint, loc{seg: s.activeID, off: off, n: len(line)})
	return nil
}

// rotateLocked opens the next numbered segment as the active one.
func (s *Store) rotateLocked() error {
	id := s.activeID + 1
	f, err := os.OpenFile(s.segPath(id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: rotating to %s: %w", segName(id), err)
	}
	s.segs[id] = f
	s.activeID = id
	s.activeSize = 0
	return nil
}

// Compact rewrites every live entry into one fresh segment and removes
// the old ones, reclaiming dead bytes (superseded duplicates, skipped
// garbage). Returns the post-compaction stats.
func (s *Store) Compact() (Stats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Stats{}, fmt.Errorf("store: closed")
	}
	tmpPath := filepath.Join(s.dir, tmpName)
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return Stats{}, fmt.Errorf("store: creating %s: %w", tmpName, err)
	}
	newID := s.activeID + 1
	newIdx := make(map[string]loc, len(s.idx))
	fps := make([]string, 0, len(s.idx))
	for fp := range s.idx {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	var off int64
	for _, fp := range fps {
		line, ok := s.readLocked(fp)
		if !ok {
			continue // unreadable entry: drop it from the compacted store
		}
		if _, err := tmp.WriteAt(append(line, '\n'), off); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return Stats{}, fmt.Errorf("store: writing compacted segment: %w", err)
		}
		newIdx[fp] = loc{seg: newID, off: off, n: len(line)}
		off += int64(len(line)) + 1
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return Stats{}, fmt.Errorf("store: syncing compacted segment: %w", err)
	}
	if err := os.Rename(tmpPath, s.segPath(newID)); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return Stats{}, fmt.Errorf("store: installing compacted segment: %w", err)
	}
	// The compacted segment is durably in place; everything older is now
	// redundant (newest-wins would shadow it anyway).
	oldIDs := make([]int, 0, len(s.segs))
	for id := range s.segs {
		oldIDs = append(oldIDs, id)
	}
	for _, id := range oldIDs {
		s.segs[id].Close()
		delete(s.segs, id)
		os.Remove(s.segPath(id))
	}
	s.segs[newID] = tmp
	s.idx = newIdx
	s.activeID = newID
	s.activeSize = off
	s.totalBytes = off
	s.liveBytes = off
	s.compactions++
	return s.statsLocked(), nil
}

// Recovered reports how many corrupt lines were dropped at load,
// satisfying runner.ResultStore (the runner surfaces it as
// Meta.CacheRecovered).
func (s *Store) Recovered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Stats is a snapshot of the store's shape and health.
type Stats struct {
	Dir string `json:"dir"`
	// Segments is the number of on-disk segment files.
	Segments int `json:"segments"`
	// Entries is the number of live fingerprints.
	Entries int `json:"entries"`
	// LiveBytes is the payload of the latest line per fingerprint;
	// TotalBytes is everything on disk. The difference is what a
	// compaction would reclaim (superseded lines, skipped garbage).
	LiveBytes  int64 `json:"live_bytes"`
	TotalBytes int64 `json:"total_bytes"`
	// DroppedLines counts corrupt lines skipped while loading (what
	// Recovered reports to the runner).
	DroppedLines int `json:"dropped_lines"`
	// Compactions counts Compact calls on this handle.
	Compactions int `json:"compactions"`
	// Appends counts successful Put calls on this handle; Lookups and
	// Misses count Get calls and the subset that found nothing. All
	// three are per-handle (in-memory), like Compactions.
	Appends uint64 `json:"appends"`
	Lookups uint64 `json:"lookups"`
	Misses  uint64 `json:"misses"`
}

// DeadBytes is the compaction-trigger input: bytes a compaction pass
// would reclaim (superseded duplicates, skipped garbage).
func (st Stats) DeadBytes() int64 { return st.TotalBytes - st.LiveBytes }

// Stats snapshots the store.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

func (s *Store) statsLocked() Stats {
	return Stats{
		Dir:          s.dir,
		Segments:     len(s.segs),
		Entries:      len(s.idx),
		LiveBytes:    s.liveBytes,
		TotalBytes:   s.totalBytes,
		DroppedLines: s.dropped,
		Compactions:  s.compactions,
		Appends:      s.appends,
		Lookups:      s.lookups,
		Misses:       s.misses,
	}
}

// Close releases every segment handle and the directory lock, reporting
// any earlier write error.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.closeAll()
	if s.writeErr != nil {
		return s.writeErr
	}
	return err
}

// closeAll closes the segments and then the lock file, which drops the
// lock.
func (s *Store) closeAll() error {
	var first error
	for id, f := range s.segs {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.segs, id)
	}
	if err := s.lock.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
