/**
 * @file
 * Logical-CPU sets and the machine topology mapping.
 *
 * Logical CPU ids are laid out socket-major, then physical core, then
 * hardware thread: cpu = socket * cpus_per_socket + core * threads + thread.
 * This mirrors how the library's cpuset "cgroup" actuator pins tasks.
 */
#ifndef HERACLES_HW_CPUSET_H
#define HERACLES_HW_CPUSET_H

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "hw/config.h"
#include "sim/log.h"

namespace heracles::hw {

/** Maximum logical CPUs supported by CpuSet. */
constexpr int kMaxCpus = 256;

/** A set of logical CPUs (like a cgroup cpuset mask). */
class CpuSet
{
  public:
    /**
     * Ascending scan over the set's cpu ids: `for (int cpu : set)`.
     * Walks the bit words with count-trailing-zeros; never allocates.
     */
    class Iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = int;
        using difference_type = std::ptrdiff_t;
        using pointer = const int*;
        using reference = int;

        Iterator(const CpuSet* set, int cpu) : set_(set), cpu_(cpu) {}
        int operator*() const { return cpu_; }
        Iterator&
        operator++()
        {
            cpu_ = set_->NextFrom(cpu_ + 1);
            return *this;
        }
        Iterator
        operator++(int)
        {
            Iterator old = *this;
            ++*this;
            return old;
        }
        bool operator==(const Iterator& o) const { return cpu_ == o.cpu_; }
        bool operator!=(const Iterator& o) const { return cpu_ != o.cpu_; }

      private:
        const CpuSet* set_;
        int cpu_;
    };

    CpuSet() = default;

    /** Builds a set from explicit cpu ids. */
    static CpuSet Of(const std::vector<int>& cpus);

    /** Builds the contiguous range [first, first + count). */
    static CpuSet Range(int first, int count);

    void
    Add(int cpu)
    {
        HERACLES_CHECK(cpu >= 0 && cpu < kMaxCpus);
        words_[cpu >> 6] |= Bit(cpu);
    }
    void
    Remove(int cpu)
    {
        HERACLES_CHECK(cpu >= 0 && cpu < kMaxCpus);
        words_[cpu >> 6] &= ~Bit(cpu);
    }
    bool
    Contains(int cpu) const
    {
        return cpu >= 0 && cpu < kMaxCpus && (words_[cpu >> 6] & Bit(cpu));
    }

    int
    Count() const
    {
        int n = 0;
        for (uint64_t w : words_) n += __builtin_popcountll(w);
        return n;
    }
    bool
    Empty() const
    {
        for (uint64_t w : words_) {
            if (w != 0) return false;
        }
        return true;
    }

    /** The smallest cpu id >= @p from in the set, or kMaxCpus if none. */
    int
    NextFrom(int from) const
    {
        int w = from >> 6;
        if (w >= kWords) return kMaxCpus;
        uint64_t bits = words_[w] & (~uint64_t{0} << (from & 63));
        while (bits == 0) {
            if (++w == kWords) return kMaxCpus;
            bits = words_[w];
        }
        return (w << 6) + __builtin_ctzll(bits);
    }

    Iterator begin() const { return Iterator(this, NextFrom(0)); }
    Iterator end() const { return Iterator(this, kMaxCpus); }

    CpuSet
    Union(const CpuSet& o) const
    {
        CpuSet r;
        for (int i = 0; i < kWords; ++i) r.words_[i] = words_[i] | o.words_[i];
        return r;
    }
    CpuSet
    Intersect(const CpuSet& o) const
    {
        CpuSet r;
        for (int i = 0; i < kWords; ++i) r.words_[i] = words_[i] & o.words_[i];
        return r;
    }
    CpuSet
    Minus(const CpuSet& o) const
    {
        CpuSet r;
        for (int i = 0; i < kWords; ++i) r.words_[i] = words_[i] & ~o.words_[i];
        return r;
    }
    bool
    Intersects(const CpuSet& o) const
    {
        for (int i = 0; i < kWords; ++i) {
            if (words_[i] & o.words_[i]) return true;
        }
        return false;
    }
    bool
    operator==(const CpuSet& o) const
    {
        for (int i = 0; i < kWords; ++i) {
            if (words_[i] != o.words_[i]) return false;
        }
        return true;
    }

    /** Compact human-readable form, e.g. "0-3,8,10-11". */
    std::string ToString() const;

  private:
    static constexpr int kWords = kMaxCpus / 64;
    static uint64_t Bit(int cpu) { return uint64_t{1} << (cpu & 63); }

    uint64_t words_[kWords] = {};
};

/** Maps logical cpu ids to (socket, physical core, thread) and back. */
class Topology
{
  public:
    explicit Topology(const MachineConfig& cfg);

    int SocketOf(int cpu) const { return cpu / cfg_.CpusPerSocket(); }

    /** Physical core id (machine-global) of a logical cpu. */
    int
    CoreOf(int cpu) const
    {
        const int local = cpu % cfg_.CpusPerSocket();
        return SocketOf(cpu) * cfg_.cores_per_socket +
               local / cfg_.threads_per_core;
    }

    int ThreadOf(int cpu) const {
        return (cpu % cfg_.CpusPerSocket()) % cfg_.threads_per_core;
    }

    /** Logical cpu for (socket-global core id, hardware thread). */
    int
    CpuOf(int core, int thread) const
    {
        const int socket = core / cfg_.cores_per_socket;
        const int local_core = core % cfg_.cores_per_socket;
        return socket * cfg_.CpusPerSocket() +
               local_core * cfg_.threads_per_core + thread;
    }

    /** The other hardware thread on the same physical core (or -1). */
    int
    SiblingOf(int cpu) const
    {
        if (cfg_.threads_per_core < 2) return -1;
        const int t = ThreadOf(cpu);
        return CpuOf(CoreOf(cpu), t == 0 ? 1 : 0);
    }

    /** Both hyperthreads of @p n physical cores starting at @p first_core. */
    CpuSet PhysicalCores(int first_core, int n) const;

    /**
     * Both hyperthreads of @p n physical cores spread evenly across
     * sockets (socket 0 core 0, socket 1 core 0, socket 0 core 1, ...),
     * the way a NUMA-interleaved latency-critical service is pinned.
     */
    CpuSet SpreadCores(int n) const;

    /** Every logical cpu of the machine. */
    CpuSet AllCpus() const;

    /** Thread @p thread of each of @p n cores starting at @p first_core. */
    CpuSet ThreadOfCores(int first_core, int n, int thread) const;

    /** Number of distinct physical cores covered by @p set. */
    int PhysicalCoreCount(const CpuSet& set) const;

    /** Cpus of @p set that live on @p socket (an AND with its mask). */
    CpuSet
    OnSocket(const CpuSet& set, int socket) const
    {
        return socket >= 0 && socket < cfg_.sockets
                   ? set.Intersect(socket_masks_[socket])
                   : CpuSet();
    }

    const MachineConfig& config() const { return cfg_; }

  private:
    MachineConfig cfg_;
    std::vector<CpuSet> socket_masks_;  ///< Every cpu of each socket.
};

}  // namespace heracles::hw

#endif  // HERACLES_HW_CPUSET_H
