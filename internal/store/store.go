// Package store is a disk-backed, content-addressed artifact store: the
// persistent second tier behind the serving layer's in-memory artifact cache.
// Entries map a compile CacheKey ("sha256:<hex>") to the pre-marshaled
// response body of the compile that produced it, so a daemon restarted
// against a populated store serves bodies byte-identical to the cold
// compiles that populated it.
//
// Durability and integrity:
//
//   - Writes are atomic: the entry is written to a ".tmp" sibling, synced,
//     and renamed into place. A crash mid-write leaves only a temp file,
//     which Open sweeps away — a truncated entry is never served.
//   - Every entry file is self-describing: a small header records the key
//     and the SHA-256 of the body, so the index can always be rebuilt from a
//     directory scan and every read is digest-verified end to end.
//   - A read whose body fails verification (or whose header is mangled) is
//     quarantined: the file is moved aside into quarantine/ for forensics,
//     the entry becomes a miss, and the caller recompiles.
//
// Capacity is bounded in bytes; least-recently-used entries are evicted
// (deleted from disk) to make room. Recency survives restarts via a small
// JSON index snapshot, itself written atomically; losing it costs only
// recency ordering, never content, because the entry files are the source of
// truth.
package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

const (
	objectsDir    = "objects"
	quarantineDir = "quarantine"
	indexFile     = "index.json"
	tmpSuffix     = ".tmp"

	// DefaultMaxBytes bounds a store whose Open caller passed no budget.
	DefaultMaxBytes = 256 << 20
)

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("store: closed")

// Stats is a point-in-time snapshot of store effectiveness counters.
type Stats struct {
	Entries     int
	Bytes       int64
	Hits        uint64
	Misses      uint64
	Puts        uint64
	Evictions   uint64
	Quarantined uint64
	// Rebuilt reports whether Open reconstructed the index from a directory
	// scan because the snapshot was missing or unreadable.
	Rebuilt bool
}

// Store is the disk-backed artifact store. All methods are safe for
// concurrent use.
type Store struct {
	dir      string
	maxBytes int64

	mu          sync.Mutex
	closed      bool
	clock       uint64     // logical recency clock; larger = more recent
	ll          *list.List // front = most recently used
	entries     map[string]*list.Element
	bytes       int64
	hits        uint64
	misses      uint64
	puts        uint64
	evictions   uint64
	quarantined uint64
	rebuilt     bool
}

// entry is one resident artifact: its key, body size and digest, and a
// logical-clock recency stamp (persisted so LRU order survives restarts).
type entry struct {
	key  string
	size int64
	sum  string // hex SHA-256 of the body
	used uint64 // logical clock; larger = more recent
}

// Open opens (or initializes) a store rooted at dir. maxBytes <= 0 means
// DefaultMaxBytes. Temp files from interrupted writes are removed, the index
// snapshot is loaded — or rebuilt from a scan of the entry files when
// missing or unreadable — and the store is evicted down to budget.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	for _, sub := range []string{objectsDir, quarantineDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	return s, nil
}

// objectPath returns the entry file for key, fanned out over a two-hex-digit
// prefix directory so no single directory grows unboundedly.
func (s *Store) objectPath(key string) string {
	name := fileName(key)
	return filepath.Join(s.dir, objectsDir, name[:2], name)
}

// fileName derives the on-disk basename for a key: the hex of its sha256:
// content address when it has one (self-inverting via the entry header),
// otherwise the hex sha256 of the key text itself.
func fileName(key string) string {
	if hexPart, ok := strings.CutPrefix(key, "sha256:"); ok && isHex(hexPart) && len(hexPart) >= 4 {
		return hexPart
	}
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// Get returns the verified body for key, or ok=false on a miss. A present
// but unreadable or corrupted entry is quarantined and reported as a miss.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false
	}
	e, ok := s.entries[key]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	ent := e.Value.(*entry)
	path := s.objectPath(key)
	body, err := readEntry(path, key, ent.sum)
	if err != nil {
		// Corruption or tampering: move the file aside and forget the entry.
		s.quarantineLocked(e, err)
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	s.hits++
	s.touchLocked(e)
	s.mu.Unlock()
	return body, true
}

// Put stores body under key, evicting least-recently-used entries if the
// write pushes the store over budget. Re-putting an existing key refreshes
// its recency; the first body wins (identical content addresses hold
// identical bodies by construction).
func (s *Store) Put(key string, body []byte) error {
	if key == "" {
		return errors.New("store: empty key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if e, ok := s.entries[key]; ok {
		s.touchLocked(e)
		return nil
	}
	path := s.objectPath(key)
	sum, err := writeEntry(path, key, body)
	if err != nil {
		return err
	}
	ent := &entry{key: key, size: int64(len(body)), sum: sum}
	s.entries[key] = s.ll.PushFront(ent)
	s.bytes += ent.size
	s.puts++
	s.touchLocked(s.entries[key])
	s.evictLocked()
	s.saveIndexLocked()
	return nil
}

// touchLocked moves e to the MRU position and stamps its logical clock.
func (s *Store) touchLocked(e *list.Element) {
	s.ll.MoveToFront(e)
	s.clock++
	e.Value.(*entry).used = s.clock
}

// evictLocked deletes LRU entries (and their files) until under budget.
func (s *Store) evictLocked() {
	for s.bytes > s.maxBytes && s.ll.Len() > 1 {
		oldest := s.ll.Back()
		ent := oldest.Value.(*entry)
		s.removeLocked(oldest)
		_ = os.Remove(s.objectPath(ent.key))
		s.evictions++
	}
}

// removeLocked drops e from the index without touching its file.
func (s *Store) removeLocked(e *list.Element) {
	ent := e.Value.(*entry)
	s.ll.Remove(e)
	delete(s.entries, ent.key)
	s.bytes -= ent.size
}

// quarantineLocked moves a corrupted entry's file into quarantine/ and drops
// it from the index. The moved file keeps its name plus a ".quarantined"
// suffix (replacing any previous quarantine of the same name) so forensics
// can diff it against a fresh compile.
func (s *Store) quarantineLocked(e *list.Element, cause error) {
	ent := e.Value.(*entry)
	src := s.objectPath(ent.key)
	dst := filepath.Join(s.dir, quarantineDir, fileName(ent.key)+".quarantined")
	if err := os.Rename(src, dst); err != nil && !errors.Is(err, os.ErrNotExist) {
		// Renames within one filesystem only fail for exotic reasons; make
		// sure the bad bytes can never be served again regardless.
		_ = os.Remove(src)
	}
	s.removeLocked(e)
	s.quarantined++
	s.saveIndexLocked()
	_ = cause // the caller reports the miss; the file itself is the forensic record
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:     s.ll.Len(),
		Bytes:       s.bytes,
		Hits:        s.hits,
		Misses:      s.misses,
		Puts:        s.puts,
		Evictions:   s.evictions,
		Quarantined: s.quarantined,
		Rebuilt:     s.rebuilt,
	}
}

// Close persists the index snapshot and refuses further use. Entry files are
// already durable; Close only flushes recency metadata.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.saveIndexLocked()
	s.closed = true
	return nil
}
