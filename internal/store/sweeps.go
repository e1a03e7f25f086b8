package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The sweep registry sidecar: the daemon's list of submitted sweep
// specs, serialized so a restarted daemon can resurrect (and re-run,
// from the result store) every sweep it was ever asked for. The store
// treats the specs as opaque JSON documents — their schema belongs to
// the API layer.
const (
	sweepsName = "sweeps.json"
	sweepsTmp  = "sweeps.json.tmp"
)

// SaveSweeps atomically replaces the sweep registry sidecar with the
// given spec documents, preserving order. Each must be compact JSON as
// json.Marshal writes it; the documents are joined as they are, so the
// file is byte for byte json.Marshal of the list without re-encoding it.
// The write is tmp + fsync + rename, so a crash leaves either the old
// registry or the new one, never a torn file.
func (s *Store) SaveSweeps(specs []json.RawMessage) error {
	data := []byte{'['}
	for i, spec := range specs {
		if i > 0 {
			data = append(data, ',')
		}
		data = append(data, spec...)
	}
	data = append(data, "]\n"...)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	tmp := filepath.Join(s.dir, sweepsTmp)
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating %s: %w", sweepsTmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: writing sweep registry: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: syncing sweep registry: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: closing sweep registry: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, sweepsName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: installing sweep registry: %w", err)
	}
	return nil
}

// Sweeps loads the saved sweep registry. A missing sidecar is an empty
// registry; a corrupt one is dropped (counted like a corrupt result
// line) rather than fatal, matching the store's recovery discipline.
func (s *Store) Sweeps() []json.RawMessage {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := os.ReadFile(filepath.Join(s.dir, sweepsName))
	if err != nil {
		return nil
	}
	var specs []json.RawMessage
	if err := json.Unmarshal(data, &specs); err != nil {
		s.dropped++
		return nil
	}
	return specs
}
