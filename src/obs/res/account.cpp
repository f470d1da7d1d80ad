#include "curb/obs/res/account.hpp"

#include <algorithm>
#include <cstdlib>
#include <new>

// This translation unit replaces the global allocation functions, so nothing
// in here may allocate with operator new — counter storage is constinit
// atomics, and the per-frame attribution table grows with raw realloc.

namespace curb::obs::res {

namespace {

// -- per-tag counters --------------------------------------------------------

struct AtomicCounters {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> frees{0};
  std::atomic<std::uint64_t> alloc_bytes{0};
  std::atomic<std::uint64_t> freed_bytes{0};
  std::atomic<std::uint64_t> live_bytes{0};
  std::atomic<std::uint64_t> peak_live_bytes{0};
};

constinit AtomicCounters g_tags[kTagCount];
constinit AtomicCounters g_total;
constinit std::atomic<std::uint64_t> g_header_bytes{0};

void bump_alloc(AtomicCounters& c, std::uint64_t size) {
  c.allocs.fetch_add(1, std::memory_order_relaxed);
  c.alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  const std::uint64_t live =
      c.live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  std::uint64_t peak = c.peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak && !c.peak_live_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

void bump_free(AtomicCounters& c, std::uint64_t size) {
  c.frees.fetch_add(1, std::memory_order_relaxed);
  c.freed_bytes.fetch_add(size, std::memory_order_relaxed);
  c.live_bytes.fetch_sub(size, std::memory_order_relaxed);
}

TagCounters read(const AtomicCounters& c) {
  TagCounters out;
  out.allocs = c.allocs.load(std::memory_order_relaxed);
  out.frees = c.frees.load(std::memory_order_relaxed);
  out.alloc_bytes = c.alloc_bytes.load(std::memory_order_relaxed);
  out.freed_bytes = c.freed_bytes.load(std::memory_order_relaxed);
  out.live_bytes = c.live_bytes.load(std::memory_order_relaxed);
  out.peak_live_bytes = c.peak_live_bytes.load(std::memory_order_relaxed);
  return out;
}

// -- per-frame attribution ---------------------------------------------------

// Indexed by prof attribution-tree node. Grows with realloc only; never
// shrinks and never runs a destructor, so it is safe both inside operator new
// and during static destruction after main.
struct FrameTable {
  FrameAlloc* data = nullptr;
  std::size_t size = 0;
};
thread_local constinit FrameTable t_frames;

void bump_frame(std::uint64_t size) {
  prof::Profiler* p = prof::thread_profiler();
  if (p == nullptr) return;
  const std::uint32_t node = p->current_node();
  FrameTable& t = t_frames;
  if (node >= t.size) {
    std::size_t next = t.size == 0 ? 64 : t.size;
    while (next <= node) next *= 2;
    auto* grown = static_cast<FrameAlloc*>(
        std::realloc(t.data, next * sizeof(FrameAlloc)));
    if (grown == nullptr) return;  // attribution is best-effort
    std::fill(grown + t.size, grown + next, FrameAlloc{});
    t.data = grown;
    t.size = next;
  }
  t.data[node].allocs += 1;
  t.data[node].bytes += size;
}

// -- enable latch ------------------------------------------------------------

bool read_env_latch() {
  const char* account = std::getenv("CURB_MEM_ACCOUNT");
  const bool on = (account != nullptr && *account != '\0' &&
                   !(account[0] == '0' && account[1] == '\0')) ||
                  std::getenv("CURB_MEM_OUT") != nullptr ||
                  std::getenv("CURB_MEM_FOLDED") != nullptr;
  if (on) prof::enable_component_tags();
  return on;
}

}  // namespace

bool enabled() {
  // Latched at the process's first allocation (operator new calls this before
  // doing anything else), so block headering is all-or-nothing for the whole
  // process lifetime.
  static const bool on = read_env_latch();
  return on;
}

void detail::record_alloc(std::size_t size, prof::ComponentTag tag) {
  bump_alloc(g_tags[static_cast<std::size_t>(tag)], size);
  bump_alloc(g_total, size);
  bump_frame(size);
}

void detail::record_free(std::size_t size, prof::ComponentTag tag) {
  bump_free(g_tags[static_cast<std::size_t>(tag)], size);
  bump_free(g_total, size);
}

std::uint64_t MemSnapshot::tagged_alloc_bytes() const {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kTagCount; ++i) {
    if (static_cast<prof::ComponentTag>(i) == prof::ComponentTag::kUntagged)
      continue;
    sum += tags[i].alloc_bytes;
  }
  return sum;
}

MemSnapshot snapshot() {
  MemSnapshot snap;
  snap.total = read(g_total);
  for (std::size_t i = 0; i < kTagCount; ++i) snap.tags[i] = read(g_tags[i]);
  snap.header_bytes = g_header_bytes.load(std::memory_order_relaxed);
  return snap;
}

void reset_peaks() {
  const auto reset = [](AtomicCounters& c) {
    c.peak_live_bytes.store(c.live_bytes.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
  };
  for (auto& c : g_tags) reset(c);
  reset(g_total);
}

std::vector<FrameAlloc> frame_allocations() {
  const FrameTable& t = t_frames;
  return {t.data, t.data + t.size};
}

void clear_frame_allocations() {
  FrameTable& t = t_frames;
  std::fill(t.data, t.data + t.size, FrameAlloc{});
}

namespace {

// -- headered allocation path ------------------------------------------------

// 32 bytes, stored immediately before the pointer handed to the caller. Keeps
// the malloc base (aligned-new shifts the user pointer), the requested size,
// and the attribution tag so operator delete can credit the right subsystem
// no matter which thread or scope frees the block.
struct Header {
  void* base;
  std::uint64_t size;
  std::uint32_t tag;
  std::uint32_t magic;
  std::uint64_t pad;
};
static_assert(sizeof(Header) == 32);
inline constexpr std::uint32_t kMagic = 0xC0B5'ACC7u;

void* headered_alloc(std::size_t size, std::size_t align) noexcept {
  // Default-aligned blocks: malloc's 16-byte alignment survives the +32
  // header. Over-aligned blocks pad by `align` and align the user pointer up.
  const std::size_t slack = align > alignof(std::max_align_t) ? align : 0;
  void* raw = std::malloc(size + sizeof(Header) + slack);
  if (raw == nullptr) return nullptr;
  auto user = reinterpret_cast<std::uintptr_t>(raw) + sizeof(Header);
  if (slack != 0) user = (user + align - 1) & ~(static_cast<std::uintptr_t>(align) - 1);
  auto* h = reinterpret_cast<Header*>(user) - 1;
  h->base = raw;
  h->size = size;
  h->tag = static_cast<std::uint32_t>(prof::current_component_tag());
  h->magic = kMagic;
  g_header_bytes.fetch_add(sizeof(Header) + slack, std::memory_order_relaxed);
  detail::record_alloc(size, static_cast<prof::ComponentTag>(h->tag));
  return reinterpret_cast<void*>(user);
}

void headered_free(void* ptr) noexcept {
  auto* h = static_cast<Header*>(ptr) - 1;
  if (h->magic != kMagic) {
    // Not one of ours (e.g. handed over from a non-headered allocator across
    // a library boundary). Free the pointer as-is rather than corrupting.
    std::free(ptr);
    return;
  }
  h->magic = 0;  // catch double frees as foreign-pointer frees, not UAF math
  detail::record_free(h->size, static_cast<prof::ComponentTag>(h->tag));
  std::free(h->base);
}

void* plain_aligned_alloc(std::size_t size, std::size_t align) noexcept {
  void* ptr = nullptr;
  if (posix_memalign(&ptr, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return ptr;
}

void* alloc_or_null(std::size_t size, std::size_t align) noexcept {
  if (enabled()) return headered_alloc(size, align);
  if (align > alignof(std::max_align_t)) return plain_aligned_alloc(size, align);
  return std::malloc(size == 0 ? 1 : size);
}

void* alloc_or_throw(std::size_t size, std::size_t align) {
  void* ptr = alloc_or_null(size, align);
  while (ptr == nullptr) {
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc{};
    handler();
    ptr = alloc_or_null(size, align);
  }
  return ptr;
}

void dealloc(void* ptr) noexcept {
  if (ptr == nullptr) return;
  if (enabled()) {
    headered_free(ptr);
    return;
  }
  std::free(ptr);
}

}  // namespace
}  // namespace curb::obs::res

// -- global operator new/delete replacement ----------------------------------
//
// All eight new forms and all twelve delete forms route through the four
// helpers above. Sized deletes ignore the size argument: the header (when
// accounting is on) already records the requested size, and free() does not
// need it.

namespace res = curb::obs::res;

void* operator new(std::size_t size) {
  return res::alloc_or_throw(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return res::alloc_or_throw(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return res::alloc_or_throw(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return res::alloc_or_throw(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return res::alloc_or_null(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return res::alloc_or_null(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return res::alloc_or_null(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return res::alloc_or_null(size, static_cast<std::size_t>(align));
}

void operator delete(void* ptr) noexcept { res::dealloc(ptr); }
void operator delete[](void* ptr) noexcept { res::dealloc(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { res::dealloc(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { res::dealloc(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { res::dealloc(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { res::dealloc(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  res::dealloc(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  res::dealloc(ptr);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  res::dealloc(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  res::dealloc(ptr);
}
void operator delete(void* ptr, std::align_val_t, const std::nothrow_t&) noexcept {
  res::dealloc(ptr);
}
void operator delete[](void* ptr, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  res::dealloc(ptr);
}
