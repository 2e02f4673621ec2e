package checkpoint

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// File is the writable-file surface the checkpoint writer needs. The
// Sync before Close is what makes the temp-file + rename pattern
// crash-safe: the payload is on stable storage before the rename
// publishes it.
type File interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// FS is the filesystem seam every checkpoint operation goes through.
// Production uses OS(); the fault-injection harness in
// internal/checkpoint/faultfs wraps any FS and fails, tears, or drops
// specific operations to prove the recovery paths.
type FS interface {
	MkdirAll(dir string, perm os.FileMode) error
	// CreateTemp creates a new temporary file in dir (pattern as in
	// os.CreateTemp).
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldPath, newPath string) error
	Remove(path string) error
	ReadDir(dir string) ([]os.DirEntry, error)
	ReadFile(path string) ([]byte, error)
	// SyncDir fsyncs a directory so a completed rename survives power
	// loss (directory entries are metadata with their own durability).
	SyncDir(dir string) error
}

// OS returns the real-filesystem implementation.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Sync can fail on filesystems that do not support fsync on
	// directories; surface the error — callers treat it as a failed
	// save, which is the conservative reading.
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// WriteFile durably replaces path with the concatenation of chunks. It
// writes them, one Write each, to a new temp file in path's directory
// (named from pattern, as in os.CreateTemp), fsyncs and closes it,
// renames it to path, and fsyncs the directory so the rename itself
// survives power loss. A failure before the rename removes the temp
// file (best effort) and leaves an existing path untouched; a failed
// directory fsync is reported after the rename has happened.
func WriteFile(fsys FS, path, pattern string, chunks ...[]byte) error {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, pattern)
	if err != nil {
		return fmt.Errorf("checkpoint: creating temp file: %w", err)
	}
	tmp := f.Name()
	err = writeTemp(f, chunks)
	if err == nil {
		if err = fsys.Rename(tmp, path); err != nil {
			err = fmt.Errorf("publishing %s: %w", path, err)
		}
	}
	if err != nil {
		//lint:allow errdrop: cleanup is best-effort; the error being returned is the one that matters
		fsys.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("checkpoint: syncing dir %s: %w", dir, err)
	}
	return nil
}

// writeTemp writes chunks to f, fsyncs it and closes it. f is closed
// whatever the outcome.
func writeTemp(f File, chunks [][]byte) error {
	for _, chunk := range chunks {
		if _, err := f.Write(chunk); err != nil {
			//lint:allow errdrop: the write error is the one reported; Close only releases the fd
			f.Close()
			return fmt.Errorf("writing %s: %w", f.Name(), err)
		}
	}
	if err := f.Sync(); err != nil {
		//lint:allow errdrop: the sync error is the one reported; Close only releases the fd
		f.Close()
		return fmt.Errorf("syncing %s: %w", f.Name(), err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", f.Name(), err)
	}
	return nil
}
