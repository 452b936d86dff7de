//go:build !linux

package aem

import (
	"errors"
	"os"
)

// Portable fallback: no mapping, so FileStorage serves every transfer
// through buffered positional reads and writes. The engine's contract
// (and the conformance suite) is identical; only the transfer mechanism
// differs.

const mmapSupported = false

const mapWindow = 0

func mmapFile(f *os.File, length int) ([]byte, error) {
	return nil, errors.New("aem: mmap unsupported on this platform")
}

func munmapFile(b []byte) error {
	return errors.New("aem: mmap unsupported on this platform")
}
