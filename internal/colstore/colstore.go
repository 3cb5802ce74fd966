// Package colstore is the out-of-core storage layer: it makes the
// dictionary-encoded columnar form the *storage* format of a fragment,
// not just its execution format, so a site can serve detection over
// data larger than its RAM.
//
// A persisted fragment is one file holding, in order,
//
//	[schema section][dict 0 … n-1][column segment 0 … n-1][segment table][footer]
//
// where
//
//   - the schema section records the relation name, attributes and key;
//   - each column has its own dictionary section — the distinct
//     values in first-occurrence order, so loaded dictionaries assign
//     exactly the IDs relation.Encoded would assign when building the
//     column in memory (overlay chains from incremental encoding are
//     flattened at persist time: the writer interns fresh);
//   - a column segment is a run of fixed-row chunks, each chunk a mix
//     of RLE runs (repeated IDs) and bit-packed runs at the minimal
//     width for the chunk's largest ID, behind a directory of each
//     chunk's byte length;
//   - the segment table records each section's offset, length and
//     FNV-1a checksum;
//   - the fixed-size footer at the end of the file carries the magic,
//     format version, row count, and the table's position + checksum.
//
// Readers access the file through one read-only mapping (mmap on unix,
// a whole-file read elsewhere): decoding touches only the pages of the
// chunks a scan actually visits, so resident memory tracks the working
// set, not the data size. Dictionaries are likewise lazy — verified
// and decoded on first access, per column — so a scan over
// low-cardinality rule columns never materializes (or even pages in)
// the O(rows) dictionaries of unique-valued columns. Checksums are
// verified on open for the schema and table sections, and per
// dictionary and column segment on first access — a flipped byte
// surfaces as an error, never as a silently wrong answer.
//
// The stored form is also the shipped form, and one reader serves both
// (column.go): a column is its dictionary-section bytes and chunk
// payload slices. A Fragment is a file header over
// columns whose slices alias the mapping; a Packed (packed.go) holds
// them directly — shared from a fragment, re-encoded from a row
// selection, or adopted off the wire and verified whole.
//
// Writes are crash-safe by construction: the writer streams into a
// temporary file in the target directory and renames it into place
// only after a successful sync, so an interrupted write leaves either
// the old file or none. The companion DeltaLog persists
// relation.Delta batches with per-record checksums; a torn tail
// (crash mid-append) is detected and truncated on replay.
package colstore

import "hash/fnv"

// Format constants.
const (
	// Magic opens the footer of every fragment file.
	Magic = "DCFDCOL1"
	// FormatVersion is bumped on any incompatible layout change.
	// Version 2 split the single dict section into one section per
	// column so dictionaries verify and decode independently; version 3
	// dropped the per-chunk and per-segment ID bounds (a chunk is checked
	// against its column's dictionary instead).
	FormatVersion = 3
	// DefaultChunkRows is the writer's rows-per-chunk; readers take the
	// value from the file, so it can change without a version bump.
	DefaultChunkRows = 8192
	// MaxChunkRows is the largest rows-per-chunk a reader adopts, from a
	// peer (NewPacked) or a file (loadSegment). A run-length chunk
	// verifies in O(1) however many rows it claims, so without a cap a
	// few bytes could announce a chunk that costs gigabytes to decode;
	// with it, decode work stays proportional to the number of chunks
	// that actually arrived. Every writer emits DefaultChunkRows.
	MaxChunkRows = 1 << 16

	// FragmentFile and DeltaLogFile are the well-known names inside a
	// store directory (see CreateDir / OpenDir).
	FragmentFile = "fragment.col"
	DeltaLogFile = "delta.log"
)

// footerSize is the fixed byte length of the trailing footer:
// magic[8] version[4] arity[4] rows[8] tableOff[8] tableLen[8] tableSum[8].
const footerSize = 8 + 4 + 4 + 8 + 8 + 8 + 8

// checksum is the store's integrity hash (64-bit FNV-1a; xxhash-shaped
// usage — fast, dependency-free, and plenty for corruption detection,
// which is the only claim made: this is not an authenticity check).
func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
