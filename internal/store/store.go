// Package store provides the storage substrate: the Store interface
// every data source implements, a disk-backed store (the paper's
// dedicated storage node), an in-memory store, a simulated S3 object
// store with the latency/bandwidth behaviour the paper's retrieval
// layer was built around, a TCP store server/client pair, and the
// multi-threaded ranged chunk fetcher slaves use for remote data.
package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNotFound is returned when a named object does not exist.
var ErrNotFound = errors.New("store: object not found")

// Store is a read-only object store holding a data set's files.
// Implementations must be safe for concurrent use: slaves issue many
// parallel ranged reads.
type Store interface {
	// ReadAt fills p from the object's bytes starting at off. Reads
	// that begin past the end return 0, io.EOF; reads that end past
	// the end return the bytes read and io.EOF, matching io.ReaderAt.
	ReadAt(name string, p []byte, off int64) (int, error)
	// Size returns the object's length in bytes.
	Size(name string) (int64, error)
	// List returns all object names, sorted.
	List() ([]string, error)
}

// Mem is an in-memory Store, used by tests and as the backing of the
// simulated S3 service.
type Mem struct {
	mu      sync.RWMutex
	objects map[string][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{objects: make(map[string][]byte)} }

// Put stores (or replaces) an object. The slice is retained and must
// not be modified afterwards: objects are replaced, never mutated,
// which is what lets Lend hand out views of them.
func (m *Mem) Put(name string, data []byte) {
	m.mu.Lock()
	m.objects[name] = data
	m.mu.Unlock()
}

// Delete removes an object if present.
func (m *Mem) Delete(name string) {
	m.mu.Lock()
	delete(m.objects, name)
	m.mu.Unlock()
}

// ReadAt implements Store.
func (m *Mem) ReadAt(name string, p []byte, off int64) (int, error) {
	view, err := m.Lend(name, off, int64(len(p)))
	return copy(p, view), err
}

// Lend is ReadAt without the copy: it returns a read-only view of up
// to length bytes of the object at off, with ReadAt's errors (io.EOF
// beside a view cut short by the object's end). The view stays valid
// and unchanged after a later Put or Delete of the same name, which
// swap the object rather than touch its bytes. It is not the caller's
// to modify, and not a buffer to recycle into any pool.
func (m *Mem) Lend(name string, off, length int64) ([]byte, error) {
	m.mu.RLock()
	data, ok := m.objects[name]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if off < 0 {
		return nil, fmt.Errorf("store: negative offset %d", off)
	}
	if length < 0 {
		return nil, fmt.Errorf("store: negative length %d", length)
	}
	if off >= int64(len(data)) {
		return nil, io.EOF
	}
	// Capacity is clipped with the length: an append to a view must
	// reallocate, never write into the object.
	rest := data[off:len(data):len(data)]
	if length > int64(len(rest)) {
		return rest, io.EOF
	}
	return rest[:length:length], nil
}

// Size implements Store.
func (m *Mem) Size(name string) (int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.objects[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return int64(len(data)), nil
}

// List implements Store.
func (m *Mem) List() ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, 0, len(m.objects))
	for name := range m.objects {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Local is a directory-backed Store: each object is a regular file
// directly under Dir. It models the paper's dedicated storage node.
type Local struct {
	dir string

	mu    sync.Mutex
	files map[string]*os.File // lazily opened, kept for the store's life
}

// NewLocal returns a store over the files in dir.
func NewLocal(dir string) *Local {
	return &Local{dir: dir, files: make(map[string]*os.File)}
}

// Dir returns the backing directory.
func (l *Local) Dir() string { return l.dir }

func (l *Local) open(name string) (*os.File, error) {
	if strings.ContainsAny(name, `/\`) || name == "" || name == "." || name == ".." {
		return nil, fmt.Errorf("store: invalid object name %q", name)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if f, ok := l.files[name]; ok {
		return f, nil
	}
	f, err := os.Open(filepath.Join(l.dir, name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
		}
		return nil, err
	}
	l.files[name] = f
	return f, nil
}

// ReadAt implements Store.
func (l *Local) ReadAt(name string, p []byte, off int64) (int, error) {
	f, err := l.open(name)
	if err != nil {
		return 0, err
	}
	return f.ReadAt(p, off)
}

// Size implements Store.
func (l *Local) Size(name string) (int64, error) {
	f, err := l.open(name)
	if err != nil {
		return 0, err
	}
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// List implements Store.
func (l *Local) List() ([]string, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Close releases any files Local has opened.
func (l *Local) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var first error
	for name, f := range l.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(l.files, name)
	}
	return first
}

// ReadAll reads the whole object from any store.
func ReadAll(s Store, name string) ([]byte, error) {
	size, err := s.Size(name)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	n, err := s.ReadAt(name, buf, 0)
	if int64(n) == size && (err == nil || err == io.EOF) {
		return buf, nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return nil, err
}
