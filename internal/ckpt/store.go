package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Store manages a directory of snapshots with retention rotation that keeps
// the newest retain (3). The directory is the store's only index: a
// snapshot's epoch is in its file name, its integrity in its CRC, its size
// and saved time in the file's size and mtime.
//
//	<dir>/snap-<epoch>.nsck     one snapshot per retained epoch
//
// Every write is temp file + fsync + rename, so a crash mid-save never
// corrupts an existing snapshot, and a snapshot is visible to LoadLatest
// from the moment its rename lands. Any other name in the directory (a temp
// file, a MANIFEST left by an older build) is ignored and left alone.
type Store struct {
	dir string
}

const retain = 3

// Entry is one snapshot file in the store.
type Entry struct {
	Epoch int
	File  string
}

// OpenStore opens (creating if needed) a snapshot directory.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("ckpt: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: creating store: %w", err)
	}
	return &Store{dir: dir}, nil
}

func snapName(epoch int) string { return fmt.Sprintf("snap-%08d.nsck", epoch) }

// Entries lists the store's snapshot files in ascending epoch order. A name
// counts only if it is the one Save writes for the epoch it spells, so each
// epoch has at most one file and every other name is ignored.
func (st *Store) Entries() ([]Entry, error) {
	des, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: listing store: %w", err)
	}
	var out []Entry
	for _, de := range des {
		name := de.Name()
		// A name that fails to parse reads as epoch 0, whose name it is not.
		epoch, _ := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".nsck"))
		if !de.IsDir() && name == snapName(epoch) {
			out = append(out, Entry{Epoch: epoch, File: name})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out, nil
}

// Save writes the snapshot atomically, then rotates: it removes the
// lowest-epoch snapshots other than the one just written until retain
// remain. Re-saving an epoch replaces its file. It returns the snapshot's
// path.
func (st *Store) Save(s *Snapshot) (string, error) {
	name := snapName(s.Epoch)
	path := filepath.Join(st.dir, name)
	tmp, err := os.CreateTemp(st.dir, ".tmp-snap-*")
	if err != nil {
		return "", fmt.Errorf("ckpt: creating temp snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := s.Encode(tmp); err != nil {
		tmp.Close()
		return "", fmt.Errorf("ckpt: encoding snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", fmt.Errorf("ckpt: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return "", err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", fmt.Errorf("ckpt: publishing snapshot: %w", err)
	}
	entries, err := st.Entries()
	if err != nil {
		return "", err
	}
	excess := len(entries) - retain
	for _, e := range entries {
		if excess <= 0 {
			break
		}
		if e.File != name {
			os.Remove(filepath.Join(st.dir, e.File))
			excess--
		}
	}
	return path, nil
}

// Load reads and decodes one entry's snapshot.
func (st *Store) Load(e Entry) (*Snapshot, error) {
	f, err := os.Open(filepath.Join(st.dir, e.File))
	if err != nil {
		return nil, fmt.Errorf("ckpt: opening snapshot: %w", err)
	}
	defer f.Close()
	s, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", e.File, err)
	}
	return s, nil
}

// LoadLatest decodes the newest snapshot in the store that decodes, so a
// torn or bit-rotted newest file falls back to the entry before it. It
// returns the newest entry's error when none decodes, and (nil, nil) when
// the store is empty — an empty store is the normal state of a fresh run,
// not an error.
func (st *Store) LoadLatest() (*Snapshot, error) {
	entries, err := st.Entries()
	if err != nil {
		return nil, err
	}
	var newestErr error
	for i := len(entries) - 1; i >= 0; i-- {
		s, err := st.Load(entries[i])
		if err == nil {
			return s, nil
		}
		if newestErr == nil {
			newestErr = err
		}
	}
	return nil, newestErr
}

// Saver writes snapshots at a fixed epoch cadence. The engine calls
// MaybeSave at every epoch barrier; the saver decides whether this epoch is
// due and persists it synchronously (checkpointing inside the barrier keeps
// the snapshot consistent across workers — nothing moves while it runs).
type Saver struct {
	Store *Store
	// Every is the epoch cadence; a snapshot is written when
	// epoch % Every == 0 (and always for Every <= 1).
	Every int
}

// Due reports whether a snapshot should be written at this epoch barrier.
func (s *Saver) Due(epoch int) bool {
	if s == nil || s.Store == nil {
		return false
	}
	if s.Every <= 1 {
		return true
	}
	return epoch%s.Every == 0
}

// Save persists the snapshot through the underlying store.
func (s *Saver) Save(snap *Snapshot) error {
	_, err := s.Store.Save(snap)
	return err
}
