package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// CheckpointStore is where a fleet's durable stream checkpoints live.
// Keys are fleet-global stream ids; each Put replaces the stream's
// previous checkpoint (recovery only ever wants the latest). A store
// must tolerate concurrent Puts for different streams — boards
// checkpoint in parallel at the epoch barrier.
type CheckpointStore interface {
	// Put durably records data as stream id's latest checkpoint. A
	// store must not retain data after Put returns — copy what it
	// keeps: callers encode into buffers they reuse for the next
	// checkpoint (the fleet's boards keep theirs across epochs).
	Put(stream int, data []byte) error
	// Latest returns stream id's most recent checkpoint, or ok=false
	// when the stream has never been checkpointed. An error means the
	// store exists but could not be read — callers should treat both
	// as "recover cold".
	Latest(stream int) (data []byte, ok bool, err error)
}

// MemCheckpoints is the in-process CheckpointStore: it survives board
// failure (boards are goroutine-simulated; the coordinator's memory
// is the durable domain) but not process death. It is the default
// store for chaos tests and simulations.
type MemCheckpoints struct {
	mu   sync.RWMutex
	data map[int][]byte
}

// NewMemCheckpoints returns an empty in-memory store.
func NewMemCheckpoints() *MemCheckpoints {
	return &MemCheckpoints{data: make(map[int][]byte)}
}

// Put implements CheckpointStore. It copies data into the stream's
// slot, reusing the slot's memory, so a Put over a checkpoint as large
// allocates nothing; Latest hands out copies, so no reader sees the
// slot change.
func (m *MemCheckpoints) Put(stream int, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data[stream] = append(m.data[stream][:0], data...)
	return nil
}

// Latest implements CheckpointStore.
func (m *MemCheckpoints) Latest(stream int) ([]byte, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	d, ok := m.data[stream]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), d...), true, nil
}

// FileCheckpoints is the file-backed CheckpointStore: one file per
// stream under a directory, each Put written to a temp file, synced,
// renamed into place and the directory synced, so a crash mid-write
// leaves the previous checkpoint intact rather than a torn one, and a
// Put that returned survives a power loss.
type FileCheckpoints struct {
	dir string
}

// NewFileCheckpoints opens (creating if needed) a checkpoint
// directory.
func NewFileCheckpoints(dir string) (*FileCheckpoints, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: checkpoint dir: %w", err)
	}
	return &FileCheckpoints{dir: dir}, nil
}

// path is stream id's checkpoint file.
func (f *FileCheckpoints) path(stream int) string {
	return filepath.Join(f.dir, fmt.Sprintf("stream-%04d.ckpt", stream))
}

// Put implements CheckpointStore (atomic via temp + rename). The temp
// file's bytes reach the disk before the rename can expose them, and
// the rename itself before Put returns.
func (f *FileCheckpoints) Put(stream int, data []byte) error {
	tmp, err := os.CreateTemp(f.dir, fmt.Sprintf("stream-%04d-*.tmp", stream))
	if err != nil {
		return fmt.Errorf("serve: checkpoint temp: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("serve: checkpoint write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("serve: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("serve: checkpoint close: %w", err)
	}
	if err := os.Rename(name, f.path(stream)); err != nil {
		os.Remove(name)
		return fmt.Errorf("serve: checkpoint rename: %w", err)
	}
	dir, err := os.Open(f.dir)
	if err != nil {
		return fmt.Errorf("serve: checkpoint dir sync: %w", err)
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("serve: checkpoint dir sync: %w", err)
	}
	return nil
}

// Latest implements CheckpointStore.
func (f *FileCheckpoints) Latest(stream int) ([]byte, bool, error) {
	data, err := os.ReadFile(f.path(stream))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("serve: checkpoint read: %w", err)
	}
	return data, true, nil
}
