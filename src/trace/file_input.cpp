#include "trace/file_input.hpp"

#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#define TETRA_FILE_INPUT_HAVE_MMAP 1
#include <sys/mman.h>
#include <sys/stat.h>
#endif

namespace tetra::trace {

FileInput::FileInput(const std::string& path)
    : file_(std::fopen(path.c_str(), "rb")), path_(path) {
  if (file_ == nullptr) {
    throw std::runtime_error("cannot open for read: " + path);
  }
#if TETRA_FILE_INPUT_HAVE_MMAP
  struct stat st = {};
  if (::fstat(::fileno(file_), &st) == 0 && S_ISREG(st.st_mode)) {
    regular_size_ = static_cast<std::size_t>(st.st_size);
  }
#endif
}

FileInput::~FileInput() { std::fclose(file_); }

std::size_t FileInput::read(char* out, std::size_t len) {
  const std::size_t n = std::fread(out, 1, len, file_);
  if (n < len && std::ferror(file_) != 0) {
    throw std::runtime_error("read failed: " + path_);
  }
  return n;
}

void FileInput::read_rest(std::string& out) {
  // A pipe, or a file that grew after it was measured, is read in chunks.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::size_t chunk = kChunk;
  if (regular_size_ && *regular_size_ > out.size()) {
    chunk = *regular_size_ - out.size() + 1;  // +1 sees the end at once
  }
  for (;;) {
    const std::size_t old = out.size();
    out.resize(old + chunk);
    const std::size_t n = read(out.data() + old, chunk);
    out.resize(old + n);
    if (n < chunk) return;
    chunk = kChunk;
  }
}

void* FileInput::map() const {
#if TETRA_FILE_INPUT_HAVE_MMAP
  if (!regular_size_ || *regular_size_ == 0) return nullptr;
  void* p = ::mmap(nullptr, *regular_size_, PROT_READ, MAP_PRIVATE,
                   ::fileno(file_), 0);
  return p == MAP_FAILED ? nullptr : p;
#else
  return nullptr;
#endif
}

}  // namespace tetra::trace
