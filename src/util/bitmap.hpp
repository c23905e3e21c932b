/**
 * @file
 * Dynamic bitmap used by the fine-grained block loader (§3.3.1).
 *
 * NosWalker marks the 4 KiB pages that stalled walkers need in a bitmap
 * and issues precise I/O for marked pages only.  std::vector<bool> is
 * avoided because we need word-level iteration over set bits.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace noswalker::util {

/** Fixed-capacity bitmap with fast iteration over set bits. */
class Bitmap {
  public:
    Bitmap() = default;

    /** Create a bitmap of @p nbits bits, all clear. */
    explicit Bitmap(std::size_t nbits) { resize(nbits); }

    /** Resize to @p nbits bits; newly exposed bits are clear. */
    void resize(std::size_t nbits);

    /** Number of addressable bits. */
    std::size_t size() const { return nbits_; }

    /** Set bit @p i. */
    void
    set(std::size_t i)
    {
        words_[i >> 6] |= (std::uint64_t{1} << (i & 63));
    }

    /** Clear bit @p i. */
    void
    clear(std::size_t i)
    {
        words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    }

    /** Test bit @p i. */
    bool
    test(std::size_t i) const
    {
        return (words_[i >> 6] >> (i & 63)) & 1;
    }

    /** Clear all bits. */
    void reset();

    /** Number of set bits. */
    std::size_t count() const;

    /** True if no bit is set. */
    bool none() const;

    /**
     * Invoke @p fn(index) for every set bit in ascending order.
     *
     * Word-at-a-time scan; the loader uses this to coalesce adjacent
     * marked pages into single I/O requests.
     */
    template <typename Fn>
    void
    for_each_set(Fn &&fn) const
    {
        for (std::size_t wi = 0; wi < words_.size(); ++wi) {
            std::uint64_t word = words_[wi];
            while (word != 0) {
                const int bit = __builtin_ctzll(word);
                fn(wi * 64 + static_cast<std::size_t>(bit));
                word &= word - 1;
            }
        }
    }

    /**
     * Invoke @p fn(first, end) for every maximal run [first, end) of set
     * bits, in ascending order.  Word-at-a-time: a run costs a few bit
     * operations however long it is.  The loader derives its page
     * segments and coalesced requests from these runs.
     */
    template <typename Fn>
    void
    for_each_run(Fn &&fn) const
    {
        constexpr std::uint64_t kAll = ~std::uint64_t{0};
        bool open = false;
        std::size_t first = 0;
        for (std::size_t wi = 0; wi < words_.size(); ++wi) {
            std::uint64_t word = words_[wi];
            const std::size_t base = wi * 64;
            if (open) {
                if (word == kAll) {
                    continue;
                }
                // The open run ends at this word's lowest clear bit.
                const int ones = __builtin_ctzll(~word);
                fn(first, base + static_cast<std::size_t>(ones));
                open = false;
                word &= ~((std::uint64_t{1} << ones) - 1);
            }
            while (word != 0) {
                const int start = __builtin_ctzll(word);
                const std::uint64_t shifted = word >> start;
                if (shifted == kAll >> start) {
                    // Runs to the top of the word: may continue.
                    first = base + static_cast<std::size_t>(start);
                    open = true;
                    break;
                }
                const int len = __builtin_ctzll(~shifted);
                fn(base + static_cast<std::size_t>(start),
                   base + static_cast<std::size_t>(start + len));
                word &= ~(((std::uint64_t{1} << len) - 1) << start);
            }
        }
        if (open) {
            // Bits past size() are never set, so the run ends there.
            fn(first, nbits_);
        }
    }

    /** Bytes of heap memory held. */
    std::size_t
    memory_bytes() const
    {
        return words_.capacity() * sizeof(std::uint64_t);
    }

  private:
    std::vector<std::uint64_t> words_;
    std::size_t nbits_ = 0;
};

} // namespace noswalker::util
