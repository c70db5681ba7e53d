// Package chunk implements the paper's data organization (Section
// III-B): a data set is divided into files (distributable across
// sites), files into logical chunks (the unit of job assignment, sized
// to compute-node memory), and chunks into data units (the smallest
// atomically processable element, grouped to fit processor caches).
//
// A binary index file records, for every chunk, its file, starting
// offset, size, and unit count; the head node reads the index at
// startup to generate the job pool (one job per chunk).
package chunk

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"cloudburst/internal/store"
)

// FileMeta describes one data file of the data set.
type FileMeta struct {
	// Name is the object name inside its site's store.
	Name string
	// Size is the file length in bytes.
	Size int64
	// Site names the site whose store holds the file ("local", "cloud").
	Site string
}

// Chunk is one logical chunk — one job.
type Chunk struct {
	// ID is the global chunk id, dense from 0.
	ID int32
	// File indexes into Index.Files.
	File int32
	// Offset is the chunk's starting byte inside the file.
	Offset int64
	// Length is the chunk's byte length (a multiple of the record size).
	Length int64
	// Units is the number of data units in the chunk.
	Units int64
}

// Index is the data set's metadata: the record (unit) size, the files,
// and every chunk.
type Index struct {
	// RecordSize is the fixed byte size of one data unit.
	RecordSize int32
	Files      []FileMeta
	Chunks     []Chunk
}

// BuildOptions configure index generation.
type BuildOptions struct {
	// RecordSize is the data unit size in bytes (required, > 0).
	RecordSize int32
	// ChunkBytes is the target chunk size; rounded down to a multiple
	// of RecordSize, minimum one record. Each file is cut into chunks
	// of exactly that size from its start, except that a trailing
	// remainder of at most a tenth of it folds into the file's last
	// chunk (Hadoop's split slop), so no job is a runt of a few
	// records: a file's last chunk holds between one record and
	// 1.1×ChunkBytes. A file smaller than one chunk is one chunk.
	ChunkBytes int64
}

// Build scans the named files in their stores and produces an Index.
// files lists (name, site) in order; sizes are read from the matching
// store via the stores map (site -> store).
func Build(stores map[string]store.Store, files []FileMeta, opts BuildOptions) (*Index, error) {
	if opts.RecordSize <= 0 {
		return nil, fmt.Errorf("chunk: record size must be positive, got %d", opts.RecordSize)
	}
	chunkBytes := opts.ChunkBytes - opts.ChunkBytes%int64(opts.RecordSize)
	if chunkBytes < int64(opts.RecordSize) {
		chunkBytes = int64(opts.RecordSize)
	}
	idx := &Index{RecordSize: opts.RecordSize}
	var id int32
	for _, fm := range files {
		st, ok := stores[fm.Site]
		if !ok {
			return nil, fmt.Errorf("chunk: no store for site %q", fm.Site)
		}
		size, err := st.Size(fm.Name)
		if err != nil {
			return nil, fmt.Errorf("chunk: stat %s@%s: %w", fm.Name, fm.Site, err)
		}
		if size%int64(opts.RecordSize) != 0 {
			return nil, fmt.Errorf("chunk: %s size %d not a multiple of record size %d",
				fm.Name, size, opts.RecordSize)
		}
		fm.Size = size
		fileIdx := int32(len(idx.Files))
		idx.Files = append(idx.Files, fm)
		for off := int64(0); off < size; {
			length := min(chunkBytes, size-off)
			if rest := size - off - length; rest > 0 && 10*rest <= chunkBytes {
				length += rest // a runt remainder rides with the last chunk
			}
			idx.Chunks = append(idx.Chunks, Chunk{
				ID: id, File: fileIdx, Offset: off, Length: length,
				Units: length / int64(opts.RecordSize),
			})
			id++
			off += length
		}
	}
	return idx, nil
}

// TotalUnits sums the data units across all chunks.
func (idx *Index) TotalUnits() int64 {
	var n int64
	for _, c := range idx.Chunks {
		n += c.Units
	}
	return n
}

// TotalBytes sums file sizes.
func (idx *Index) TotalBytes() int64 {
	var n int64
	for _, f := range idx.Files {
		n += f.Size
	}
	return n
}

// Validate checks internal consistency: dense ids, in-range file
// references, in-bounds chunks, and record alignment.
func (idx *Index) Validate() error {
	if idx.RecordSize <= 0 {
		return errors.New("chunk: non-positive record size")
	}
	for i, c := range idx.Chunks {
		if c.ID != int32(i) {
			return fmt.Errorf("chunk: id %d at position %d", c.ID, i)
		}
		if c.File < 0 || int(c.File) >= len(idx.Files) {
			return fmt.Errorf("chunk %d: file index %d out of range", c.ID, c.File)
		}
		f := idx.Files[c.File]
		if c.Offset < 0 || c.Length <= 0 || c.Offset+c.Length > f.Size {
			return fmt.Errorf("chunk %d: range [%d,%d) outside file %s (%d bytes)",
				c.ID, c.Offset, c.Offset+c.Length, f.Name, f.Size)
		}
		if c.Length%int64(idx.RecordSize) != 0 {
			return fmt.Errorf("chunk %d: length %d not record-aligned", c.ID, c.Length)
		}
		if c.Units != c.Length/int64(idx.RecordSize) {
			return fmt.Errorf("chunk %d: unit count %d inconsistent", c.ID, c.Units)
		}
	}
	return nil
}

const indexMagic = 0x43424958 // "CBIX"
const indexVersion = 1

// WriteTo serializes the index in a compact binary format.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countWriter{w: bw}
	write := func(v any) error { return binary.Write(cw, binary.LittleEndian, v) }
	writeStr := func(s string) error {
		if err := write(int32(len(s))); err != nil {
			return err
		}
		_, err := cw.Write([]byte(s))
		return err
	}

	if err := write(uint32(indexMagic)); err != nil {
		return cw.n, err
	}
	if err := write(uint32(indexVersion)); err != nil {
		return cw.n, err
	}
	if err := write(idx.RecordSize); err != nil {
		return cw.n, err
	}
	if err := write(int32(len(idx.Files))); err != nil {
		return cw.n, err
	}
	for _, f := range idx.Files {
		if err := writeStr(f.Name); err != nil {
			return cw.n, err
		}
		if err := writeStr(f.Site); err != nil {
			return cw.n, err
		}
		if err := write(f.Size); err != nil {
			return cw.n, err
		}
	}
	if err := write(int32(len(idx.Chunks))); err != nil {
		return cw.n, err
	}
	for _, c := range idx.Chunks {
		if err := write(c); err != nil {
			return cw.n, err
		}
	}
	return cw.n, bw.Flush()
}

// ReadIndex deserializes an index written by WriteTo and validates it.
func ReadIndex(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	read := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }
	readStr := func() (string, error) {
		var n int32
		if err := read(&n); err != nil {
			return "", err
		}
		if n < 0 || n > 1<<20 {
			return "", fmt.Errorf("chunk: bad string length %d", n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}

	var magic, version uint32
	if err := read(&magic); err != nil {
		return nil, err
	}
	if magic != indexMagic {
		return nil, fmt.Errorf("chunk: bad index magic %#x", magic)
	}
	if err := read(&version); err != nil {
		return nil, err
	}
	if version != indexVersion {
		return nil, fmt.Errorf("chunk: unsupported index version %d", version)
	}
	idx := &Index{}
	if err := read(&idx.RecordSize); err != nil {
		return nil, err
	}
	var nFiles int32
	if err := read(&nFiles); err != nil {
		return nil, err
	}
	if nFiles < 0 || nFiles > 1<<20 {
		return nil, fmt.Errorf("chunk: bad file count %d", nFiles)
	}
	for i := int32(0); i < nFiles; i++ {
		var f FileMeta
		var err error
		if f.Name, err = readStr(); err != nil {
			return nil, err
		}
		if f.Site, err = readStr(); err != nil {
			return nil, err
		}
		if err = read(&f.Size); err != nil {
			return nil, err
		}
		idx.Files = append(idx.Files, f)
	}
	var nChunks int32
	if err := read(&nChunks); err != nil {
		return nil, err
	}
	if nChunks < 0 || nChunks > 1<<28 {
		return nil, fmt.Errorf("chunk: bad chunk count %d", nChunks)
	}
	idx.Chunks = make([]Chunk, nChunks)
	for i := range idx.Chunks {
		if err := read(&idx.Chunks[i]); err != nil {
			return nil, err
		}
	}
	if err := idx.Validate(); err != nil {
		return nil, err
	}
	return idx, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
