#include "formats/tile_file.hpp"

#include <cstring>
#include <fstream>
#include <limits>

#if defined(__linux__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define TILESPMSPV_HAS_MMAP 1
#endif

#include "formats/validate.hpp"

namespace tilespmspv {

std::uint64_t fnv1a64(const void* data, std::size_t n, std::uint64_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// MappedFile

std::shared_ptr<MappedFile> MappedFile::open(const std::string& path) {
  auto mf = std::shared_ptr<MappedFile>(new MappedFile());
  mf->path_ = path;
#ifdef TILESPMSPV_HAS_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("tile_file: cannot open " + path);
  struct stat st {};
  if (fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw std::runtime_error("tile_file: cannot stat " + path);
  }
  mf->size_ = static_cast<std::size_t>(st.st_size);
  if (mf->size_ > 0) {
    void* p = ::mmap(nullptr, mf->size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (p == MAP_FAILED) {
      ::close(fd);
      throw std::runtime_error("tile_file: mmap failed for " + path);
    }
    mf->data_ = static_cast<std::uint8_t*>(p);
    mf->mapped_ = true;
  }
  ::close(fd);  // the mapping survives the descriptor
#else
  // Portability fallback: materialize the file. Loses zero-copy but keeps
  // the format usable; every platform we build for has mmap.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("tile_file: cannot open " + path);
  const std::streamoff end = in.tellg();
  mf->size_ = static_cast<std::size_t>(end);
  if (mf->size_ > 0) {
    mf->data_ = static_cast<std::uint8_t*>(
        ::operator new(mf->size_, std::align_val_t{kTileFileAlign}));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(mf->data_),
            static_cast<std::streamsize>(mf->size_));
    if (!in) {
      ::operator delete(mf->data_, std::align_val_t{kTileFileAlign});
      throw std::runtime_error("tile_file: short read from " + path);
    }
  }
#endif
  return mf;
}

MappedFile::~MappedFile() {
  if (data_ == nullptr) return;
#ifdef TILESPMSPV_HAS_MMAP
  if (mapped_) {
    ::munmap(data_, size_);
    return;
  }
#endif
  ::operator delete(data_, std::align_val_t{kTileFileAlign});
}

// ---------------------------------------------------------------------------
// TileFileView

TileFileView TileFileView::open(std::shared_ptr<MappedFile> file,
                                bool verify_hash) {
  TileFileView v;
  v.file_ = std::move(file);
  const std::uint8_t* base = v.file_->data();
  const std::size_t size = v.file_->size();
  const std::string& path = v.file_->path();
  if (size < sizeof(TileFileHeader)) {
    throw std::runtime_error("tile_file: " + path + " shorter than a header");
  }
  v.header_ = reinterpret_cast<const TileFileHeader*>(base);
  const TileFileHeader& h = *v.header_;
  if (h.magic != kTileFileMagic) {
    throw std::runtime_error("tile_file: " + path + " has the wrong magic");
  }
  if (h.version != kTileFileVersion) {
    throw std::runtime_error("tile_file: " + path + " is format version " +
                             std::to_string(h.version) + ", expected " +
                             std::to_string(kTileFileVersion));
  }
  if (h.file_bytes != size) {
    throw std::runtime_error("tile_file: " + path + " is " +
                             std::to_string(size) + " bytes, header claims " +
                             std::to_string(h.file_bytes) + " (truncated?)");
  }
  if (h.rows < 0 || h.cols < 0 || h.nt <= 0 || h.nt > 256 ||
      h.rows > std::numeric_limits<index_t>::max() ||
      h.cols > std::numeric_limits<index_t>::max()) {
    throw std::runtime_error("tile_file: " + path + " header dims invalid");
  }
  const std::uint64_t table_end =
      sizeof(TileFileHeader) +
      std::uint64_t{h.section_count} * sizeof(TileFileSection);
  if (h.section_count > 4096 || table_end > size) {
    throw std::runtime_error("tile_file: " + path +
                             " section table out of bounds");
  }
  v.sections_ =
      reinterpret_cast<const TileFileSection*>(base + sizeof(TileFileHeader));
  for (std::uint32_t i = 0; i < h.section_count; ++i) {
    const TileFileSection& s = v.sections_[i];
    const std::string what =
        "tile_file: " + path + " section " + std::to_string(s.id);
    if (s.offset % kTileFileAlign != 0) {
      throw std::runtime_error(what + " payload is misaligned");
    }
    // Division, not multiplication: `count * elem_size` wraps for a crafted
    // count like 2^61, which would let a tiny mapping claim a huge element
    // count and send every downstream view out of bounds.
    if (s.elem_size == 0 || s.bytes % s.elem_size != 0 ||
        s.count != s.bytes / s.elem_size) {
      throw std::runtime_error(what + " size fields disagree");
    }
    if (s.offset < table_end || s.offset > size || s.bytes > size - s.offset) {
      throw std::runtime_error(what + " payload is out of bounds");
    }
  }
  if (verify_hash) {
    std::uint64_t hash = 14695981039346656037ull;
    for (std::uint32_t i = 0; i < h.section_count; ++i) {
      const TileFileSection& s = v.sections_[i];
      hash = fnv1a64(base + s.offset, static_cast<std::size_t>(s.bytes), hash);
    }
    if (hash != h.payload_hash) {
      throw std::runtime_error("tile_file: " + path +
                               " payload hash mismatch (corrupt file)");
    }
  }
  return v;
}

const TileFileSection* TileFileView::find(std::uint32_t id) const {
  // lint:gated(section_count bounded against the section-table size in open)
  for (std::uint32_t i = 0; i < header_->section_count; ++i) {
    if (sections_[i].id == id) return &sections_[i];
  }
  return nullptr;
}

const TileFileSection& TileFileView::require(std::uint32_t id,
                                             std::size_t elem_size) const {
  const TileFileSection* s = find(id);
  if (s == nullptr) {
    throw std::runtime_error("tile_file: " + file_->path() +
                             " is missing section " + std::to_string(id));
  }
  if (s->elem_size != elem_size) {
    throw std::runtime_error(
        "tile_file: " + file_->path() + " section " + std::to_string(id) +
        " has element size " + std::to_string(s->elem_size) + ", expected " +
        std::to_string(elem_size));
  }
  return *s;
}

// ---------------------------------------------------------------------------
// TileFileWriter

void TileFileWriter::add_raw(std::uint32_t id, std::size_t elem_size,
                             const void* data, std::size_t count) {
  TileFileSection s;
  s.id = id;
  s.elem_size = static_cast<std::uint32_t>(elem_size);
  s.count = count;
  s.bytes = count * elem_size;
  sections_.push_back(s);
  payloads_.push_back(data);
}

std::uint64_t TileFileWriter::write(const std::string& path) {
  header_.section_count = static_cast<std::uint32_t>(sections_.size());
  std::uint64_t cursor =
      sizeof(TileFileHeader) + sections_.size() * sizeof(TileFileSection);
  std::uint64_t hash = 14695981039346656037ull;
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    cursor = round_up(cursor, kTileFileAlign);
    sections_[i].offset = cursor;
    cursor += sections_[i].bytes;
    hash = fnv1a64(payloads_[i], static_cast<std::size_t>(sections_[i].bytes),
                   hash);
  }
  header_.payload_hash = hash;
  header_.file_bytes = cursor;

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("tile_file: cannot open " + path);
  out.write(reinterpret_cast<const char*>(&header_), sizeof(header_));
  out.write(reinterpret_cast<const char*>(sections_.data()),
            static_cast<std::streamsize>(sections_.size() *
                                         sizeof(TileFileSection)));
  static constexpr char kPad[kTileFileAlign] = {};
  std::uint64_t written =
      sizeof(TileFileHeader) + sections_.size() * sizeof(TileFileSection);
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const std::uint64_t pad = sections_[i].offset - written;
    out.write(kPad, static_cast<std::streamsize>(pad));
    out.write(static_cast<const char*>(payloads_[i]),
              static_cast<std::streamsize>(sections_[i].bytes));
    written = sections_[i].offset + sections_[i].bytes;
  }
  if (!out) throw std::runtime_error("tile_file: write failed for " + path);
  return hash;
}

// ---------------------------------------------------------------------------
// High-level API

bool is_tile_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  return in && magic == kTileFileMagic;
}

TileFileHeader read_tile_file_header(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("tile_file: cannot open " + path);
  TileFileHeader h;
  in.read(reinterpret_cast<char*>(&h), sizeof(h));
  if (!in) throw std::runtime_error("tile_file: " + path + " header truncated");
  if (h.magic != kTileFileMagic) {
    throw std::runtime_error("tile_file: " + path + " has the wrong magic");
  }
  // Callers dispatch on these fields (TileBfs switches on nt, the CLI
  // prints dims) before any mapping-time validation runs, so the sniffed
  // header passes the same gates open() applies.
  if (h.version != kTileFileVersion) {
    throw std::runtime_error("tile_file: " + path + " is format version " +
                             std::to_string(h.version) + ", expected " +
                             std::to_string(kTileFileVersion));
  }
  if (h.rows < 0 || h.cols < 0 || h.nt <= 0 || h.nt > 256 ||
      h.rows > std::numeric_limits<index_t>::max() ||
      h.cols > std::numeric_limits<index_t>::max()) {
    throw std::runtime_error("tile_file: " + path + " header dims invalid");
  }
  return h;
}

namespace {

void add_tile_matrix_sections(TileFileWriter& w, const TileMatrix<value_t>& m,
                              std::uint32_t id_bits) {
  namespace ts = tf_section;
  w.add(ts::kTileRowPtr | id_bits, m.tile_row_ptr);
  w.add(ts::kTileColId | id_bits, m.tile_col_id);
  w.add(ts::kTileNnzPtr | id_bits, m.tile_nnz_ptr);
  w.add(ts::kIntraRowPtr | id_bits, m.intra_row_ptr);
  w.add(ts::kLocalCol | id_bits, m.local_col);
  w.add(ts::kVals | id_bits, m.vals);
  w.add(ts::kExtRowIdx | id_bits, m.extracted.row_idx);
  w.add(ts::kExtColIdx | id_bits, m.extracted.col_idx);
  w.add(ts::kExtVals | id_bits, m.extracted.vals);
  w.add(ts::kSideRowPtr | id_bits, m.side_row_ptr);
  w.add(ts::kRowChunkPtr | id_bits, m.row_chunk_ptr);
  w.add(ts::kRunPtr | id_bits, m.run_ptr);
  w.add(ts::kRowRuns | id_bits, m.row_runs);
  w.add(ts::kTileStrategy | id_bits, m.tile_strategy);
}

TileMatrix<value_t> bind_tile_matrix(const TileFileView& v, index_t rows,
                                     index_t cols, index_t nt,
                                     std::uint32_t id_bits) {
  namespace ts = tf_section;
  TileMatrix<value_t> m;
  m.rows = rows;
  m.cols = cols;
  m.nt = nt;
  m.tile_rows = ceil_div(rows, nt);
  m.tile_cols = ceil_div(cols, nt);
  v.bind(ts::kTileRowPtr | id_bits, m.tile_row_ptr);
  v.bind(ts::kTileColId | id_bits, m.tile_col_id);
  v.bind(ts::kTileNnzPtr | id_bits, m.tile_nnz_ptr);
  v.bind(ts::kIntraRowPtr | id_bits, m.intra_row_ptr);
  v.bind(ts::kLocalCol | id_bits, m.local_col);
  v.bind(ts::kVals | id_bits, m.vals);
  m.extracted = Coo<value_t>(rows, cols);
  v.copy(ts::kExtRowIdx | id_bits, m.extracted.row_idx);
  v.copy(ts::kExtColIdx | id_bits, m.extracted.col_idx);
  v.copy(ts::kExtVals | id_bits, m.extracted.vals);
  v.bind(ts::kSideRowPtr | id_bits, m.side_row_ptr);
  v.copy(ts::kRowChunkPtr | id_bits, m.row_chunk_ptr);
  v.bind(ts::kRunPtr | id_bits, m.run_ptr);
  v.bind(ts::kRowRuns | id_bits, m.row_runs);
  v.bind(ts::kTileStrategy | id_bits, m.tile_strategy);
  // Cheap structural gates on the fast path: the pointer arrays must have
  // their expected lengths or the kernels would index out of bounds. Full
  // payload validation stays optional (deep_validate).
  const auto tiles = m.tile_col_id.size();
  if (m.tile_row_ptr.size() != static_cast<std::size_t>(m.tile_rows) + 1 ||
      m.tile_nnz_ptr.size() != tiles + 1 ||
      m.intra_row_ptr.size() != tiles * static_cast<std::size_t>(nt + 1) ||
      m.run_ptr.size() != tiles + 1 || m.tile_strategy.size() != tiles ||
      m.side_row_ptr.size() != static_cast<std::size_t>(rows) + 1 ||
      m.local_col.size() != m.vals.size()) {
    throw std::runtime_error("tile_file: matrix section lengths inconsistent");
  }
  // Parallel-array agreement: the extracted COO triple is indexed with a
  // shared cursor, so a crafted file that shortens one section (each
  // section is internally consistent, so open() cannot catch this) would
  // send the kernels past the shorter array.
  if (m.extracted.row_idx.size() != m.extracted.vals.size() ||
      m.extracted.col_idx.size() != m.extracted.vals.size()) {
    throw std::runtime_error("tile_file: parallel section lengths disagree");
  }
  return m;
}

}  // namespace

std::uint64_t write_tile_matrix_file_v2(const std::string& path,
                                        const TileMatrix<value_t>& m,
                                        const TileMatrix<value_t>* transpose) {
  TileFileHeader h;
  h.kind = static_cast<std::uint32_t>(TileFileKind::kTileMatrix);
  h.rows = m.rows;
  h.cols = m.cols;
  h.nt = m.nt;
  h.edges = static_cast<std::int64_t>(m.total_nnz());
  if (transpose != nullptr) {
    if (transpose->rows != m.cols || transpose->cols != m.rows ||
        transpose->nt != m.nt) {
      throw std::runtime_error(
          "tile_file: transpose part dims do not mirror the matrix");
    }
    h.flags |= kTileFileHasTranspose;
  }
  TileFileWriter w(h);
  add_tile_matrix_sections(w, m, 0);
  if (transpose != nullptr) {
    add_tile_matrix_sections(w, *transpose, kTileFileTransposeBit);
  }
  return w.write(path);
}

MappedTileMatrix map_tile_matrix_file(const std::string& path,
                                      bool verify_hash, bool deep_validate) {
  TileFileView v = TileFileView::open(MappedFile::open(path), verify_hash);
  const TileFileHeader& h = v.header();
  if (h.kind != static_cast<std::uint32_t>(TileFileKind::kTileMatrix)) {
    throw std::runtime_error("tile_file: " + path + " is not a matrix file");
  }
  MappedTileMatrix out;
  out.header = h;
  const auto rows = static_cast<index_t>(h.rows);
  const auto cols = static_cast<index_t>(h.cols);
  const auto nt = static_cast<index_t>(h.nt);
  out.tiled = bind_tile_matrix(v, rows, cols, nt, 0);
  out.tiled.placed = Placement::kMapped;
  out.tiled.storage = v.file();
  out.has_transpose = (h.flags & kTileFileHasTranspose) != 0;
  if (out.has_transpose) {
    out.tiled_t = bind_tile_matrix(v, cols, rows, nt, kTileFileTransposeBit);
    out.tiled_t.placed = Placement::kMapped;
    out.tiled_t.storage = v.file();
  }
  if (deep_validate) {
    require_valid(validate_tile_matrix(out.tiled), "map_tile_matrix_file");
    if (out.has_transpose) {
      require_valid(validate_tile_matrix(out.tiled_t),
                    "map_tile_matrix_file(transpose)");
    }
  }
  return out;
}

}  // namespace tilespmspv
