package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// testKey builds a content-addressed key the way the serving layer does.
func testKey(seed string) string {
	sum := sha256.Sum256([]byte(seed))
	return "sha256:" + hex.EncodeToString(sum[:])
}

func testBody(seed string, n int) []byte {
	rng := rand.New(rand.NewSource(int64(len(seed)) + int64(seed[0])))
	b := make([]byte, n)
	rng.Read(b)
	copy(b, seed) // make bodies distinguishable in error messages
	return b
}

func mustOpen(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// TestRoundTripAndRestartWarm pins the store's core guarantee: bodies read
// back byte-identical, both within one process and across a close/reopen —
// the restart-warm path.
func TestRoundTripAndRestartWarm(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	bodies := map[string][]byte{}
	for i := 0; i < 8; i++ {
		key := testKey(fmt.Sprintf("entry-%d", i))
		body := testBody(fmt.Sprintf("body-%d", i), 512+i)
		bodies[key] = body
		if err := s.Put(key, body); err != nil {
			t.Fatal(err)
		}
	}
	for key, want := range bodies {
		got, ok := s.Get(key)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("in-process Get(%s) ok=%v, body match=%v", key[:16], ok, bytes.Equal(got, want))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	warm := mustOpen(t, dir, 0)
	if warm.Len() != len(bodies) {
		t.Fatalf("reopened store holds %d entries, want %d", warm.Len(), len(bodies))
	}
	if warm.Stats().Rebuilt {
		t.Fatal("clean reopen should use the index snapshot, not rebuild")
	}
	for key, want := range bodies {
		got, ok := warm.Get(key)
		if !ok {
			t.Fatalf("restart-warm Get(%s) missed", key[:16])
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("restart-warm body for %s differs from the original", key[:16])
		}
	}
}

// TestCrashConsistencyTruncatedTempNeverServed plants interrupted-write
// debris (a temp file and a bare partial body) and checks Open sweeps or
// quarantines it without ever serving the partial bytes.
func TestCrashConsistencyTruncatedTempNeverServed(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	key := testKey("survivor")
	if err := s.Put(key, testBody("survivor", 256)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash mid-write leaves a .tmp sibling with a prefix of the entry.
	victim := testKey("victim")
	path := filepath.Join(dir, objectsDir, fileName(victim)[:2], fileName(victim))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	full := fmt.Sprintf("%s\nkey %s\nsha256 %s\nlen 100\n\npartial-bod", entryMagic, victim, strings.Repeat("0", 64))
	if err := os.WriteFile(path+tmpSuffix, []byte(full), 0o644); err != nil {
		t.Fatal(err)
	}
	// A crash between write and index update could also leave a final file
	// with a truncated body; its header length will not match.
	orphan := testKey("orphan")
	opath := filepath.Join(dir, objectsDir, fileName(orphan)[:2], fileName(orphan))
	if err := os.MkdirAll(filepath.Dir(opath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(opath, []byte(full), 0o644); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir, 0)
	if _, err := os.Stat(path + tmpSuffix); !os.IsNotExist(err) {
		t.Fatal("temp file survived Open")
	}
	if _, ok := re.Get(victim); ok {
		t.Fatal("truncated temp write was served")
	}
	if _, ok := re.Get(orphan); ok {
		t.Fatal("truncated entry file was served")
	}
	if got, ok := re.Get(key); !ok || len(got) != 256 {
		t.Fatal("intact entry lost during sweep")
	}
	if q := re.Stats().Quarantined; q == 0 {
		t.Fatal("truncated orphan entry should have been quarantined")
	}
}

// TestCorruptedEntryQuarantined flips body bytes on disk and checks the read
// becomes a miss, the file lands in quarantine/, and the entry stays gone.
func TestCorruptedEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	key := testKey("to-corrupt")
	body := testBody("to-corrupt", 512)
	if err := s.Put(key, body); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, objectsDir, fileName(key)[:2], fileName(key))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff // corrupt the body's last byte
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(key); ok {
		t.Fatal("corrupted entry was served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupted file still in objects/")
	}
	qpath := filepath.Join(dir, quarantineDir, fileName(key)+".quarantined")
	if _, err := os.Stat(qpath); err != nil {
		t.Fatalf("corrupted file not quarantined: %v", err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("quarantined entry came back")
	}
	st := s.Stats()
	if st.Quarantined != 1 || st.Entries != 0 {
		t.Fatalf("stats after quarantine: %+v", st)
	}
	// The key is recompilable: a fresh Put must restore service.
	if err := s.Put(key, body); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); !ok || !bytes.Equal(got, body) {
		t.Fatal("re-put after quarantine did not restore the entry")
	}
}

// TestIndexRebuildFromScan deletes the snapshot and checks Open reconstructs
// the full index from the entry files alone.
func TestIndexRebuildFromScan(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	bodies := map[string][]byte{}
	for i := 0; i < 5; i++ {
		key := testKey(fmt.Sprintf("rebuild-%d", i))
		body := testBody(fmt.Sprintf("rebuild-body-%d", i), 300+i)
		bodies[key] = body
		if err := s.Put(key, body); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, indexFile)); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir, 0)
	if !re.Stats().Rebuilt {
		t.Fatal("Open with no snapshot should report a rebuild")
	}
	if re.Len() != len(bodies) {
		t.Fatalf("rebuild found %d entries, want %d", re.Len(), len(bodies))
	}
	for key, want := range bodies {
		got, ok := re.Get(key)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("rebuilt Get(%s) ok=%v", key[:16], ok)
		}
	}

	// A mangled snapshot must behave like a missing one.
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, indexFile), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	re2 := mustOpen(t, dir, 0)
	if !re2.Stats().Rebuilt || re2.Len() != len(bodies) {
		t.Fatalf("corrupt snapshot: rebuilt=%v entries=%d", re2.Stats().Rebuilt, re2.Len())
	}
}

// TestLRUEvictionBounded checks the byte budget is enforced, eviction is
// least-recently-used, and evicted files leave the disk.
func TestLRUEvictionBounded(t *testing.T) {
	dir := t.TempDir()
	const bodyBytes = 1000
	s := mustOpen(t, dir, 3*bodyBytes+bodyBytes/2) // room for 3 entries
	keys := make([]string, 5)
	for i := range keys {
		keys[i] = testKey(fmt.Sprintf("evict-%d", i))
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(keys[i], testBody(fmt.Sprintf("ev-%d", i), bodyBytes)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch keys[0] so keys[1] becomes the LRU.
	if _, ok := s.Get(keys[0]); !ok {
		t.Fatal("warm Get failed")
	}
	if err := s.Put(keys[3], testBody("ev-3", bodyBytes)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(keys[1]); ok {
		t.Fatal("LRU entry survived over-budget Put")
	}
	if _, err := os.Stat(filepath.Join(dir, objectsDir, fileName(keys[1])[:2], fileName(keys[1]))); !os.IsNotExist(err) {
		t.Fatal("evicted entry's file still on disk")
	}
	for _, k := range []string{keys[0], keys[2], keys[3]} {
		if !s.Contains(k) {
			t.Fatalf("entry %s should have survived", k[:16])
		}
	}
	if st := s.Stats(); st.Evictions != 1 || st.Bytes > 3*bodyBytes+bodyBytes/2 {
		t.Fatalf("stats after eviction: %+v", st)
	}
}

// TestRecencySurvivesRestart: LRU order persisted in the snapshot drives
// eviction decisions after a reopen at a tighter budget.
func TestRecencySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	const bodyBytes = 1000
	s := mustOpen(t, dir, 10*bodyBytes)
	a, b, c := testKey("ra"), testKey("rb"), testKey("rc")
	for _, k := range []string{a, b, c} {
		if err := s.Put(k, testBody(k[7:9], bodyBytes)); err != nil {
			t.Fatal(err)
		}
	}
	s.Get(a) // a becomes most recent; b is now the oldest
	// Get does not snapshot the index; Close must.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir, 2*bodyBytes+bodyBytes/2) // room for 2: evict exactly one
	if re.Contains(b) {
		t.Fatal("reopen at tighter budget should have evicted the LRU entry (b)")
	}
	if !re.Contains(a) || !re.Contains(c) {
		t.Fatal("recently-used entries evicted out of order")
	}
}

// TestConcurrentChurn hammers one store from many goroutines (the -race
// target for the package): concurrent Put/Get over a working set larger than
// the byte budget, so reads, writes, and evictions interleave.
func TestConcurrentChurn(t *testing.T) {
	dir := t.TempDir()
	const bodyBytes = 400
	s := mustOpen(t, dir, 8*bodyBytes)
	const (
		workers = 8
		keys    = 24
		rounds  = 40
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				i := rng.Intn(keys)
				key := testKey(fmt.Sprintf("churn-%d", i))
				body := testBody(fmt.Sprintf("cb-%02d", i), bodyBytes)
				if rng.Intn(2) == 0 {
					if err := s.Put(key, body); err != nil {
						t.Error(err)
						return
					}
				}
				if got, ok := s.Get(key); ok && !bytes.Equal(got, body) {
					t.Errorf("key %d served wrong body", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.Stats(); st.Bytes > 8*bodyBytes {
		t.Fatalf("byte budget exceeded after churn: %+v", st)
	}
	// Everything that survived churn must still verify.
	for _, key := range s.Keys() {
		if _, ok := s.Get(key); !ok {
			t.Fatalf("surviving key %s failed verification", key[:16])
		}
	}
}

// TestPutIdempotent: re-putting an existing key keeps one entry and does not
// double-count bytes.
func TestPutIdempotent(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	key := testKey("idem")
	body := testBody("idem", 200)
	for i := 0; i < 3; i++ {
		if err := s.Put(key, body); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Entries != 1 || st.Bytes != 200 || st.Puts != 1 {
		t.Fatalf("stats after re-puts: %+v", st)
	}
}

// TestClosedStoreRefusesWork: Get misses and Put errors after Close.
func TestClosedStoreRefusesWork(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	key := testKey("closed")
	if err := s.Put(key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("closed store served a read")
	}
	if err := s.Put(testKey("late"), []byte("y")); err != ErrClosed {
		t.Fatalf("Put on closed store: %v, want ErrClosed", err)
	}
}

// Contains reports whether key is indexed, without touching recency or disk.
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Keys returns the indexed keys, most recently used first.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, s.ll.Len())
	for e := s.ll.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*entry).key)
	}
	return out
}
