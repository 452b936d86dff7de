package aem

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// newFileEngine builds a file engine over a test-owned path and registers
// its cleanup.
func newFileEngine(t *testing.T, blockSize int) *FileStorage {
	t.Helper()
	s, err := NewFileStorage(filepath.Join(t.TempDir(), "em.blocks"), blockSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestFileStorageResetTruncates pins the stateful half of the Reset
// contract: Reset must shrink the backing file to zero bytes — truncate,
// not leak — so a pooled engine's file cannot accrete previous runs'
// blocks, and post-Reset allocations read as zeros again.
func TestFileStorageResetTruncates(t *testing.T) {
	t.Run("mmap", func(t *testing.T) {
		const b = 4
		s := newFileEngine(t, b)
		s.Alloc(64)
		payload := []Item{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
		for a := Addr(0); a < 64; a++ {
			s.Write(a, payload)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(s.Path())
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() < 64*int64(b*itemSize) {
			t.Fatalf("file holds %d bytes for 64 written blocks, want ≥ %d", st.Size(), 64*b*itemSize)
		}

		s.Reset()
		st, err = os.Stat(s.Path())
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != 0 {
			t.Errorf("Reset left %d bytes in the file, want 0 (truncate, not leak)", st.Size())
		}
		if s.NumBlocks() != 0 {
			t.Errorf("NumBlocks = %d after Reset, want 0", s.NumBlocks())
		}

		// The engine is fully usable after Reset and reads back fresh
		// zeros, never the previous run's payload.
		s.Alloc(2)
		buf := make([]Item, 0, b)
		if got := s.ReadInto(0, buf); len(got) != 0 {
			t.Errorf("post-Reset block 0 holds %d items, want 0", len(got))
		}
		s.Write(0, make([]Item, b))
		for i, it := range s.ReadInto(0, buf) {
			if it != (Item{}) {
				t.Errorf("stale value %v leaked through Reset at item %d", it, i)
			}
		}
	})
}

// TestFileStorageTornBlock simulates a crash mid-write: a concurrent
// writer dies after putting only half a block's bytes on disk. The engine
// must neither crash nor wedge — the torn values are simply what the
// device now holds — and Reset must obliterate the torn block so the next
// run starts from provable zeros, which is the recovery story a scratch
// external memory needs.
func TestFileStorageTornBlock(t *testing.T) {
	t.Run("mmap", func(t *testing.T) {
		const b = 4
		s := newFileEngine(t, b)
		s.Alloc(4)
		full := []Item{{10, 1}, {20, 2}, {30, 3}, {40, 4}}
		s.Write(2, full)
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}

		// The "crash": a second descriptor scribbles garbage over the
		// first half of block 2's slot and dies without finishing.
		raw, err := os.OpenFile(s.Path(), os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		tear := make([]byte, b/2*itemSize)
		for i := range tear {
			tear[i] = 0xAB
		}
		if _, err := raw.WriteAt(tear, 2*int64(b*itemSize)); err != nil {
			t.Fatal(err)
		}
		raw.Close()

		// Reading the torn block must return b items without fault;
		// the untouched second half still carries the old values.
		got := s.ReadInto(2, make([]Item, 0, b))
		if len(got) != b {
			t.Fatalf("torn block reads %d items, want %d", len(got), b)
		}
		if got[2] != full[2] || got[3] != full[3] {
			t.Errorf("tear bled past its half: %v", got)
		}
		if got[0] == full[0] {
			t.Errorf("torn half still reads the pre-crash value %v — the tear never reached the engine", got[0])
		}

		// Recovery: Reset truncates the torn state away entirely.
		s.Reset()
		s.Alloc(4)
		for a := Addr(0); a < 4; a++ {
			if n := len(s.ReadInto(a, make([]Item, 0, b))); n != 0 {
				t.Errorf("block %d holds %d items after post-tear Reset, want 0", a, n)
			}
		}
		s.Write(2, make([]Item, b))
		for i, it := range s.ReadInto(2, make([]Item, 0, b)) {
			if it != (Item{}) {
				t.Errorf("torn byte survived Reset at item %d: %v", i, it)
			}
		}
	})
}

// TestFileStorageCloseRemovesOwnedFile: registry-built temp engines own
// their file and must remove it on Close; Close is idempotent; a
// path-constructed engine leaves the caller's file behind.
func TestFileStorageCloseRemovesOwnedFile(t *testing.T) {
	s, err := NewTempFileStorage(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Alloc(2)
	s.Write(0, []Item{{1, 1}})
	path := s.Path()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("owned temp file survived Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close errored: %v", err)
	}

	kept := newFileEngine(t, 4)
	kept.Alloc(1)
	keptPath := kept.Path()
	if err := kept.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(keptPath); err != nil {
		t.Errorf("caller-owned file removed by Close: %v", err)
	}
}

// TestFileStorageUseAfterClose: the lifecycle is explicit — using a
// closed engine is a programming error and panics with the engine's own
// message naming the call, like any other machine
// assertion.
func TestFileStorageUseAfterClose(t *testing.T) {
	calls := []struct {
		op   string
		call func(s *FileStorage)
	}{
		{"Alloc", func(s *FileStorage) { s.Alloc(1) }},
		{"ReadInto", func(s *FileStorage) { s.ReadInto(0, make([]Item, 0, 4)) }},
	}
	for _, c := range calls {
		t.Run(c.op, func(t *testing.T) {
			s := newFileEngine(t, 4)
			s.Alloc(1)
			s.Write(0, []Item{{1, 1}})
			s.Close()
			defer expectPanic(t, c.op+" after Close")
			c.call(s)
		})
	}
}

// TestStorageByName pins the registry: every registered name constructs
// an empty engine that behaves as its declared caps say (it reads back
// what it was given exactly when RetainsData, and is the file engine
// exactly when Persistent), and the unknown-name error — the single
// diagnostic every layer now shares — lists the valid names.
func TestStorageByName(t *testing.T) {
	t.Setenv(FileDirEnv, t.TempDir())
	for _, e := range Engines() {
		s, err := StorageByName(e.Name, 8)
		if err != nil {
			t.Fatalf("StorageByName(%s): %v", e.Name, err)
		}
		if s.NumBlocks() != 0 {
			t.Errorf("%s: registry produced a non-empty engine", e.Name)
		}
		s.Alloc(1)
		s.Write(0, []Item{{Key: 7, Aux: 8}})
		got := s.ReadInto(0, nil)
		if retains := len(got) == 1 && got[0] == (Item{Key: 7, Aux: 8}); retains != e.Caps.RetainsData {
			t.Errorf("%s: read back %v, but caps declare RetainsData=%t", e.Name, got, e.Caps.RetainsData)
		}
		if _, file := s.(*FileStorage); file != e.Caps.Persistent {
			t.Errorf("%s: engine %T, but caps declare Persistent=%t", e.Name, s, e.Caps.Persistent)
		}
		if err := s.Close(); err != nil {
			t.Errorf("%s: Close: %v", e.Name, err)
		}
	}

	_, err := StorageByName("flash-drive", 8)
	if err == nil {
		t.Fatal("unknown engine constructed")
	}
	for _, name := range EngineNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-engine error does not list %q: %v", name, err)
		}
	}
}

// TestFileDirEnvPlacement: the registry's file engine honors AEM_FILE_DIR.
func TestFileDirEnvPlacement(t *testing.T) {
	dir := t.TempDir()
	t.Setenv(FileDirEnv, dir)
	s, err := StorageByName("file", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fs := s.(*FileStorage)
	if filepath.Dir(fs.Path()) != dir {
		t.Errorf("file engine landed in %s, want %s", filepath.Dir(fs.Path()), dir)
	}
}

// TestMachineCloseReleasesFileEngine: Machine.Close is the ownership
// surface the CLIs and tests use — it must reach through to the engine.
func TestMachineCloseReleasesFileEngine(t *testing.T) {
	t.Setenv(FileDirEnv, t.TempDir())
	st, err := StorageByName("file", 8)
	if err != nil {
		t.Fatal(err)
	}
	ma := NewWithStorage(Config{M: 64, B: 8, Omega: 2}, st)
	a := ma.Alloc(4)
	ma.Write(a, []Item{{1, 2}})
	if err := ma.Sync(); err != nil {
		t.Fatal(err)
	}
	path := st.(*FileStorage).Path()
	if err := ma.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("machine Close left the owned temp file behind: %v", err)
	}
}
