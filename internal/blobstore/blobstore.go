// Package blobstore is the on-disk substrate under the trace cache
// (internal/tracestore) and the result cache (internal/resultstore): a
// directory of named entries sharing one file extension, committed by
// atomic rename and pruned by size. It knows nothing about what an
// entry holds; each store layers its own format, and its own rule for
// when an entry is valid, on top.
package blobstore

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// maxName bounds an entry's file name, well under the common 255-byte
// limit once the extension is added.
const maxName = 200

// Store is a cache directory whose complete entries all end in one
// extension.
//
// Commits go through a unique temp file in the directory, and only an
// error-free, fsynced file is renamed onto the entry's path. Writers
// racing on one name each produce a complete file and the last rename
// wins; readers only ever observe absent or complete entries, never
// partial ones.
type Store struct {
	dir string
	ext string
}

// Open opens (creating if needed) a store directory whose entries end
// in ext (".trc", ".res").
func Open(dir, ext string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir, ext: ext}, nil
}

// Dir returns the cache directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the file path the entry called name lives at (whether or
// not it exists). The name is mapped onto the filename-safe alphabet
// and, when long, trimmed from the front: the stores end their names in
// a digest of the full key, so neither step can alias two keys.
func (s *Store) Path(name string) string {
	name = sanitize(name)
	if len(name) > maxName {
		name = name[len(name)-maxName:]
	}
	return filepath.Join(s.dir, name+s.ext)
}

// sanitize maps a name onto the filename-safe alphabet.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, name)
}

// Commit atomically installs the entry called name, replacing any
// existing one: write streams the content into a temp file, which is
// then fsynced, made world-readable and renamed onto Path(name). If
// write fails, its error is returned unchanged and nothing is
// installed.
func (s *Store) Commit(name string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(s.dir, ".commit-*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := write(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	// CreateTemp's 0600 would make a shared cache dir unreadable for
	// other users; cache entries are world-readable artifacts.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), s.Path(name)); err != nil {
		os.Remove(tmp.Name())
		tmp = nil
		return err
	}
	tmp = nil // committed; nothing to clean up
	return nil
}
