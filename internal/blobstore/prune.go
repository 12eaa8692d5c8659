package blobstore

import (
	"os"
	"path/filepath"
	"sort"
	"time"
)

// staleTempAge is how old an orphaned temp file must be before Prune
// sweeps it: young temp files may belong to an in-flight Commit in
// another process, and the atomic-rename commit never leaves one behind
// for longer than the write itself.
const staleTempAge = time.Hour

// Prune evicts entries, oldest modification time first, until the
// store's total size is at most maxBytes (maxBytes <= 0 empties the
// store). It is the size cap that lets a long-running daemon keep a
// cache warm without ever filling the disk: eviction is approximate
// LRU — a hit does not touch mtime, so "oldest" means least recently
// *written* — and always safe, because every evicted entry can be
// regenerated by recomputing it.
//
// Prune only considers complete entries (files with the store's
// extension); any other file is an orphaned temp file and is removed
// once clearly stale. Concurrent readers are unaffected: a read racing
// an eviction sees a plain miss. Returns the number of files removed
// and bytes freed.
func (s *Store) Prune(maxBytes int64) (removed int, freed int64, err error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, 0, err
	}
	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	var files []entry
	var total int64
	now := time.Now()
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		info, ierr := e.Info()
		if ierr != nil {
			continue // vanished mid-scan (a racing prune or eviction)
		}
		path := filepath.Join(s.dir, e.Name())
		if filepath.Ext(e.Name()) != s.ext {
			// A temp file older than any plausible in-flight write is an
			// orphan from a crashed process; sweep it opportunistically.
			if now.Sub(info.ModTime()) > staleTempAge {
				if os.Remove(path) == nil {
					removed++
					freed += info.Size()
				}
			}
			continue
		}
		files = append(files, entry{path: path, size: info.Size(), mtime: info.ModTime()})
		total += info.Size()
	}
	// Oldest first; names tie-break so a directory of equal mtimes
	// (fresh pre-warm) still prunes deterministically.
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mtime.Equal(files[j].mtime) {
			return files[i].mtime.Before(files[j].mtime)
		}
		return files[i].path < files[j].path
	})
	for _, f := range files {
		if total <= maxBytes {
			break
		}
		if rerr := os.Remove(f.path); rerr != nil {
			if os.IsNotExist(rerr) {
				total -= f.size
			}
			continue
		}
		removed++
		freed += f.size
		total -= f.size
	}
	return removed, freed, nil
}
