#pragma once
// Thread-safe memo table over 16-bit keys (4-input cut truth tables).
//
// The rewrite library and the technology-mapping match cache are read
// thousands of times per synthesis run and written only the first time a
// key shows up; parallel pin search shares one table across all fitness
// workers.  A hit is two acquire loads and takes no lock: a top level of
// chunk pointers, each chunk holding value pointers.  A miss computes the
// value under one mutex and publishes it with a release store.  Values are
// never moved or freed before the table itself, so returned references
// stay valid.  Chunks are allocated on demand, so a sparsely used table
// stays small.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

namespace mvf::util {

template <typename T>
class Memo16 {
public:
    Memo16() : chunks_(std::make_unique<std::atomic<Chunk*>[]>(kChunks)) {}

    ~Memo16() {
        for (std::size_t c = 0; c < kChunks; ++c) {
            Chunk* chunk = chunks_[c].load(std::memory_order_relaxed);
            if (!chunk) continue;
            for (std::atomic<const T*>& slot : chunk->slots) {
                delete slot.load(std::memory_order_relaxed);
            }
            delete chunk;
        }
    }

    Memo16(const Memo16&) = delete;
    Memo16& operator=(const Memo16&) = delete;

    /// The value memoized for `key`; on first use it is `make()`, computed
    /// under the miss lock (so exactly once per key).
    template <typename Make>
    const T& get(std::uint16_t key, Make&& make) {
        std::atomic<Chunk*>& top = chunks_[key >> kSlotBits];
        if (const Chunk* chunk = top.load(std::memory_order_acquire)) {
            if (const T* value =
                    chunk->slots[key & kSlotMask].load(std::memory_order_acquire)) {
                return *value;
            }
        }
        const std::lock_guard lock(miss_mu_);
        Chunk* chunk = top.load(std::memory_order_relaxed);
        if (!chunk) {
            chunk = new Chunk();
            top.store(chunk, std::memory_order_release);
        }
        std::atomic<const T*>& slot = chunk->slots[key & kSlotMask];
        const T* value = slot.load(std::memory_order_relaxed);
        if (!value) {
            value = new T(make());
            slot.store(value, std::memory_order_release);
        }
        return *value;
    }

private:
    static constexpr int kSlotBits = 4;
    static constexpr std::size_t kSlotMask = (1u << kSlotBits) - 1;
    static constexpr std::size_t kChunks = std::size_t{1} << (16 - kSlotBits);

    struct Chunk {
        std::array<std::atomic<const T*>, std::size_t{1} << kSlotBits> slots{};
    };

    std::unique_ptr<std::atomic<Chunk*>[]> chunks_;
    std::mutex miss_mu_;
};

}  // namespace mvf::util
