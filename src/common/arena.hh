/**
 * @file
 * Thread-local recycling arena for the simulator's hot containers.
 *
 * A design-space sweep constructs and destroys hundreds of Chip
 * instances per worker thread, each allocating the same-shaped ROB,
 * LSQ, FIFO, regfile, cache and workload buffers. The arena keeps
 * freed blocks in per-size-class free lists instead of returning them
 * to the system allocator, so from the second run on a thread onward
 * the simulator allocates nothing from the heap.
 *
 * Blocks are bucketed by power-of-two size. Frees may come from a
 * different thread than the matching allocation (each thread simply
 * adopts the block into its own lists), which is safe because every
 * block originates from ::operator new. Everything a thread holds is
 * released when the thread exits.
 */

#ifndef GALS_COMMON_ARENA_HH
#define GALS_COMMON_ARENA_HH

#include <array>
#include <cstddef>
#include <deque>
#include <new>
#include <unordered_map>
#include <vector>

namespace gals
{

/** Per-thread block recycler backing ArenaAlloc. */
class ThreadArena
{
  public:
    static ThreadArena &
    local()
    {
        thread_local ThreadArena arena;
        return arena;
    }

    void *
    allocate(std::size_t bytes)
    {
        int b = bucket(bytes);
        if (b < 0)
            return ::operator new(bytes);
        FreeBlock *&head = free_[static_cast<std::size_t>(b)];
        if (head != nullptr) {
            FreeBlock *block = head;
            head = block->next;
            return block;
        }
        return ::operator new(std::size_t{1} << b);
    }

    void
    deallocate(void *p, std::size_t bytes) noexcept
    {
        int b = bucket(bytes);
        if (b < 0) {
            ::operator delete(p);
            return;
        }
        auto *block = static_cast<FreeBlock *>(p);
        block->next = free_[static_cast<std::size_t>(b)];
        free_[static_cast<std::size_t>(b)] = block;
    }

    ThreadArena(const ThreadArena &) = delete;
    ThreadArena &operator=(const ThreadArena &) = delete;

  private:
    struct FreeBlock
    {
        FreeBlock *next;
    };

    /** Smallest bucket holds a free-list pointer; largest is 1 MiB. */
    static constexpr int kMinShift = 4;
    static constexpr int kMaxShift = 20;

    /** Bucket shift for a request, or -1 for pass-through sizes. */
    static int
    bucket(std::size_t bytes)
    {
        if (bytes > (std::size_t{1} << kMaxShift))
            return -1;
        int shift = kMinShift;
        while ((std::size_t{1} << shift) < bytes)
            ++shift;
        return shift;
    }

    ThreadArena() = default;

    ~ThreadArena()
    {
        for (FreeBlock *head : free_) {
            while (head != nullptr) {
                FreeBlock *next = head->next;
                ::operator delete(head);
                head = next;
            }
        }
    }

    std::array<FreeBlock *, kMaxShift + 1> free_{};
};

/**
 * Standard-allocator adaptor over the thread-local arena. Stateless:
 * all instances compare equal, so containers may exchange memory
 * freely.
 */
template <typename T>
struct ArenaAlloc
{
    using value_type = T;

    ArenaAlloc() noexcept = default;
    template <typename U>
    ArenaAlloc(const ArenaAlloc<U> &) noexcept
    {}

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(
            ThreadArena::local().allocate(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        ThreadArena::local().deallocate(p, n * sizeof(T));
    }

    template <typename U>
    bool operator==(const ArenaAlloc<U> &) const noexcept
    {
        return true;
    }
};

/** Containers of the simulator hot path, backed by the arena. */
template <typename T>
using ArenaVector = std::vector<T, ArenaAlloc<T>>;

template <typename T>
using ArenaDeque = std::deque<T, ArenaAlloc<T>>;

template <typename K, typename V, typename Hash = std::hash<K>>
using ArenaUnorderedMap =
    std::unordered_map<K, V, Hash, std::equal_to<K>,
                       ArenaAlloc<std::pair<const K, V>>>;

} // namespace gals

#endif // GALS_COMMON_ARENA_HH
