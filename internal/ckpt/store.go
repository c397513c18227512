package ckpt

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Store manages a directory of snapshots with a manifest and retention
// rotation that keeps the newest retain (3) snapshots. All writes are atomic
// (temp file + rename), so a crash mid-save never corrupts an existing
// snapshot, and the manifest always points at fully written files.
//
// Directory layout:
//
//	<dir>/MANIFEST              index of live snapshots, newest last
//	<dir>/snap-<epoch>.nsck     one snapshot per retained epoch
//
// The manifest is a plain text file — first line "nsck-manifest v1", then
// one line per snapshot: "epoch=<n> file=<name> bytes=<n> saved_unix=<ts>".
// It is rewritten atomically after every save; readers take the last entry
// whose file still exists and decodes, so a manifest that raced a crash or
// a torn newest file degrades to the previous snapshot instead of failing.
type Store struct {
	dir string
}

const (
	manifestName   = "MANIFEST"
	manifestHeader = "nsck-manifest v1"
	retain         = 3
)

// Entry is one manifest line: a snapshot the store knows about.
type Entry struct {
	Epoch     int
	File      string
	Bytes     int64
	SavedUnix int64
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

// Entries reads the manifest. A missing manifest is an empty store, not an
// error. Entries whose snapshot file has vanished are skipped.
func (st *Store) Entries() ([]Entry, error) {
	f, err := os.Open(filepath.Join(st.dir, manifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: opening manifest: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() || sc.Text() != manifestHeader {
		return nil, fmt.Errorf("ckpt: %s is not a snapshot manifest", f.Name())
	}
	var out []Entry
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		e, err := parseEntry(line)
		if err != nil {
			return nil, err
		}
		if _, statErr := os.Stat(filepath.Join(st.dir, e.File)); statErr != nil {
			continue // rotated out or lost; the manifest line is stale
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ckpt: reading manifest: %w", err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out, nil
}

func parseEntry(line string) (Entry, error) {
	var e Entry
	for _, tok := range strings.Fields(line) {
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return e, fmt.Errorf("ckpt: malformed manifest token %q", tok)
		}
		switch k {
		case "epoch":
			n, err := strconv.Atoi(v)
			if err != nil {
				return e, fmt.Errorf("ckpt: manifest epoch %q: %w", v, err)
			}
			e.Epoch = n
		case "file":
			if v != filepath.Base(v) || v == "" {
				return e, fmt.Errorf("ckpt: manifest file %q escapes the store", v)
			}
			e.File = v
		case "bytes":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return e, fmt.Errorf("ckpt: manifest bytes %q: %w", v, err)
			}
			e.Bytes = n
		case "saved_unix":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return e, fmt.Errorf("ckpt: manifest timestamp %q: %w", v, err)
			}
			e.SavedUnix = n
		default:
			// Unknown keys are ignored so older readers survive format
			// extensions within the same manifest version.
		}
	}
	if e.File == "" {
		return e, fmt.Errorf("ckpt: manifest entry %q names no file", line)
	}
	return e, nil
}

// Save writes the snapshot atomically, appends it to the manifest and
// applies retention rotation. It returns the snapshot's path.
func (st *Store) Save(s *Snapshot) (string, error) {
	name := fmt.Sprintf("snap-%08d.nsck", s.Epoch)
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
	info, err := os.Stat(path)
	if err != nil {
		return "", err
	}

	entries, err := st.Entries()
	if err != nil {
		return "", err
	}
	// Replace any previous entry for the same epoch (a resumed run re-saves
	// epochs it passes again), then append and rotate.
	kept := entries[:0]
	for _, e := range entries {
		if e.Epoch != s.Epoch {
			kept = append(kept, e)
		}
	}
	entries = append(kept, Entry{
		Epoch: s.Epoch, File: name, Bytes: info.Size(), SavedUnix: time.Now().Unix(),
	})
	var evicted []Entry
	if len(entries) > retain {
		evicted = append(evicted, entries[:len(entries)-retain]...)
		entries = entries[len(entries)-retain:]
	}
	if err := st.writeManifest(entries); err != nil {
		return "", err
	}
	// Delete rotated-out files only after the manifest no longer names
	// them; a crash between the two leaves garbage files, never dangling
	// manifest entries.
	for _, e := range evicted {
		os.Remove(filepath.Join(st.dir, e.File))
	}
	return path, nil
}

func (st *Store) writeManifest(entries []Entry) error {
	tmp, err := os.CreateTemp(st.dir, ".tmp-manifest-*")
	if err != nil {
		return fmt.Errorf("ckpt: creating temp manifest: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	fmt.Fprintln(w, manifestHeader)
	for _, e := range entries {
		fmt.Fprintf(w, "epoch=%d file=%s bytes=%d saved_unix=%d\n",
			e.Epoch, e.File, e.Bytes, e.SavedUnix)
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(st.dir, manifestName))
}

// Load reads and decodes one manifest entry's snapshot.
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
