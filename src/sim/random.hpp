/**
 * @file
 * Deterministic pseudo-random number generation (splitmix64 / xoshiro256**).
 * Workload generators must use this, never std::rand, so datasets are
 * reproducible across platforms and standard-library versions.
 */
#pragma once

#include <array>
#include <cstdint>

namespace maple::sim {

/** xoshiro256** seeded via splitmix64; small, fast, reproducible. */
class Rng {
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        std::uint64_t x = seed;
        for (auto &word : s_) {
            // splitmix64 step
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire-style rejection-free mapping is fine for simulation use.
        return next() % bound;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /**
     * Full generator state, exposed for snapshot/restore: setState() resumes
     * the stream at exactly the draw where state() captured it.
     */
    using State = std::array<std::uint64_t, 4>;

    State
    state() const
    {
        return State{s_[0], s_[1], s_[2], s_[3]};
    }

    void
    setState(const State &st)
    {
        for (int i = 0; i < 4; ++i)
            s_[i] = st[static_cast<std::size_t>(i)];
    }

    /** Snapshot walk (ckpt::Sink or ckpt::Source): the four state words. */
    template <class Ar>
    void
    state(Ar &ar)
    {
        for (std::uint64_t &w : s_)
            ar.u64(w);
    }

  private:
    static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

    std::uint64_t s_[4];
};

}  // namespace maple::sim
