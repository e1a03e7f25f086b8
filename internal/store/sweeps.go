package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The sweep registry sidecar: the daemon's list of submitted sweep
// specs, one JSON document per line, so a restarted daemon can resurrect
// (and re-run, from the result store) every sweep it was ever asked for.
// The store treats the specs as opaque JSON documents — their schema
// belongs to the API layer.
const (
	sweepsName = "sweeps.jsonl"
	sweepsTmp  = "sweeps.jsonl.tmp"
)

// AppendSweep adds one spec document to the registry and fsyncs it: a
// new sweep costs one line, however many are registered. The document
// must be compact JSON (no newline), as json.Marshal writes it.
func (s *Store) AppendSweep(spec json.RawMessage) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	line := append(spec[:len(spec):len(spec)], '\n')
	if err := writeSynced(filepath.Join(s.dir, sweepsName), os.O_APPEND, line); err != nil {
		return fmt.Errorf("store: appending to sweep registry: %w", err)
	}
	return nil
}

// SaveSweeps atomically replaces the sweep registry with the given spec
// documents, one per line in order, written as they are. The write is
// tmp + fsync + rename, so a crash leaves either the old registry or the
// new one, never a torn file.
func (s *Store) SaveSweeps(specs []json.RawMessage) error {
	var data []byte
	for _, spec := range specs {
		data = append(append(data, spec...), '\n')
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	tmp := filepath.Join(s.dir, sweepsTmp)
	err := writeSynced(tmp, os.O_TRUNC, data)
	if err == nil {
		err = os.Rename(tmp, filepath.Join(s.dir, sweepsName))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: saving sweep registry: %w", err)
	}
	return nil
}

// writeSynced writes data to the file at path, created if missing and
// opened with the extra flag (O_APPEND or O_TRUNC), and fsyncs it before
// closing.
func writeSynced(path string, flag int, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|flag, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Sweeps loads the sweep registry and reports how many lines it dropped.
// A missing registry is an empty one. A line that is not JSON, or a torn
// tail without its newline (an append a crash cut short), is dropped and
// counted like a corrupt result line rather than fatal, matching the
// store's recovery discipline; a caller that drops lines should rewrite
// the registry before appending to it again.
func (s *Store) Sweeps() (specs []json.RawMessage, dropped int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := os.ReadFile(filepath.Join(s.dir, sweepsName))
	if err != nil {
		return nil, 0
	}
	for len(data) > 0 {
		line, rest, complete := bytes.Cut(data, []byte{'\n'})
		if complete && json.Valid(line) {
			specs = append(specs, line[:len(line):len(line)])
		} else {
			dropped++
		}
		data = rest
	}
	s.dropped += dropped
	return specs, dropped
}
