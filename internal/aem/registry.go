package aem

import (
	"fmt"
	"os"
	"strings"
)

// This file is the single place engine names mean something. The CLI, the
// harness's backend axis and the machine pool used to each carry their
// own name→constructor switch (and their own "unknown engine" error);
// they all consume this registry now, so a new engine is one entry here
// and every layer — flags, grid axes, pooling policy — picks it up with
// its capability flags attached.

// Engine is one registered storage engine: its name, a one-line summary
// for help text, its capability flags (available without constructing,
// so grid pruning and pooling policy never instantiate an engine just to
// ask), and its constructor.
type Engine struct {
	Name    string
	Summary string
	Caps    StorageCaps
	// New constructs a fresh engine for blocks of blockSize items.
	// RAM engines cannot fail; the file engine can (no temp space,
	// exhausted descriptors).
	New func(blockSize int) (Storage, error)
}

// FileDirEnv names the environment variable that overrides where the
// registry's file engine puts its backing temp files (default:
// os.TempDir()).
const FileDirEnv = "AEM_FILE_DIR"

// engineTable is the registry, in help order, and the one place engine
// capabilities are declared. The file engine is built over
// registry-owned temp files (removed on Close) under FileDirEnv.
var engineTable = []Engine{
	{
		Name:    "slice",
		Summary: "RAM data engine: one Go slice per block, carved from shared slabs",
		Caps:    StorageCaps{RetainsData: true},
		New:     func(int) (Storage, error) { return NewSliceStorage(), nil },
	},
	{
		Name:    "counting",
		Summary: "no data plane: pure Q accounting for data-oblivious programs",
		Caps:    StorageCaps{},
		New:     func(int) (Storage, error) { return NewCountingStorage(), nil },
	},
	{
		Name:    "file",
		Summary: "file-backed external memory via one fixed mmap window (temp file under $" + FileDirEnv + ", removed on Close)",
		Caps:    StorageCaps{RetainsData: true, Persistent: true},
		New: func(b int) (Storage, error) {
			return NewTempFileStorage(os.Getenv(FileDirEnv), b)
		},
	},
}

// Engines returns the registry in help order.
func Engines() []Engine { return engineTable }

// EngineNames returns the registered names in help order.
func EngineNames() []string {
	names := make([]string, len(engineTable))
	for i, e := range engineTable {
		names[i] = e.Name
	}
	return names
}

// EngineByName resolves a registered engine.
func EngineByName(name string) (Engine, bool) {
	for _, e := range engineTable {
		if e.Name == name {
			return e, true
		}
	}
	return Engine{}, false
}

// StorageByName constructs a fresh engine by registry name — the one
// engine-construction entry point the CLI, harness and backend axis
// share. Unknown names produce the one canonical error, which lists
// every valid name.
func StorageByName(name string, blockSize int) (Storage, error) {
	e, ok := EngineByName(name)
	if !ok {
		return nil, fmt.Errorf("aem: unknown storage engine %q (valid: %s)",
			name, strings.Join(EngineNames(), ", "))
	}
	return e.New(blockSize)
}
