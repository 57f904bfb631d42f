/**
 * @file
 * The repository benchmark driver: three closed-loop workloads (scan,
 * lookup, etl_2gpu) run against the public GpufsSystem / GpuFs API.
 *
 * One process runs one workload. It repeats rounds until --seconds of
 * wall time have passed (at least kMinRounds). Each round builds a
 * fresh system with empty GPU caches, launches the workload's kernel,
 * checks every byte it read or wrote, and snapshots each layer's
 * public counters and resource busy times. The reported figures are
 * medians over rounds (latency percentiles over every op of every
 * round). run.py builds this binary and wraps it with a deadline.
 *
 * Time bases: "virt" numbers are simulated time from the cost model
 * (calibrated to the paper's C2075 / PCIe-2 machine, unvalidated for
 * these workloads); "host" numbers are CPU time (user + system, all
 * threads) or wall time of this process, as each metric's name says,
 * and "norm" CPU times (and setup_s) are scaled to a nominal host speed
 * measured by a reference loop each round.
 *
 * With --trace 1 every API call is recorded as a span (call, GPU,
 * block, op index, virtual start/end, host start/end) on alternate
 * rounds; the spans of the last traced round are written as Chrome
 * trace-event JSON to --trace-out, and the per-layer metrics are
 * printed. The untraced rounds of the same run give the tracing
 * overhead.
 *
 * Output: '#'-prefixed human-readable lines, then one JSON object as
 * the last line of stdout.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.hh"
#include "base/units.hh"
#include "gpu/launch.hh"
#include "gpufs/system.hh"
#include "hostfs/content.hh"

using namespace gpufs;

namespace {

using Clock = std::chrono::steady_clock;
/** One per-layer figure of one round: value and unit. */
struct Figure {
    double value;
    const char *unit;
};
using Metrics = std::map<std::string, Figure>;

constexpr unsigned kMinRounds = 3;

int64_t
hostNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** User + system CPU time of every thread of this process, seconds.
 *  Unlike wall time it leaves out time the host was not running the
 *  process (other jobs, hypervisor steal). */
double
processCpuS()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// ---------------------------------------------------------------------
// Host speed. The CPUs of a shared virtual machine run slower or faster
// from minute to minute, and every host-time figure moves with them.
// Each round times a fixed reference loop and scales its CPU times by
// kRefNominalS / (the loop's time), giving CPU time at a nominal host
// speed (README.md, "Host speed").

/** CPU time of the reference loop on the host the bounds were set on. */
constexpr double kRefNominalS = 5.5e-3;

double
threadCpuS()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) / 1e9;
}

volatile uint64_t refSeed = 1;
volatile uint64_t refSink;

/** Median of three timings of a dependent chain of 4M 64-bit
 *  multiply-adds on the calling thread, in CPU seconds. */
double
referenceLoopS()
{
    double t[3];
    for (double &ti : t) {
        double t0 = threadCpuS();
        uint64_t x = refSeed;
        for (unsigned i = 0; i < 4000000; ++i)
            x = x * 0x9e3779b97f4a7c15ull + (x >> 17);
        refSink = x;
        ti = threadCpuS() - t0;
    }
    std::sort(t, t + 3);
    return t[1];
}

// ---------------------------------------------------------------------
// Content: every file is a sequence of 64-bit words, word w of a file
// with key k being (w * kWordMul) ^ k. Generation and checking are one
// multiply and one xor per word, so host time measures the library,
// not the generator.

constexpr uint64_t kWordMul = 0x9e3779b97f4a7c15ull;

inline uint64_t
wordAt(uint64_t key, uint64_t w)
{
    return (w * kWordMul) ^ key;
}

/** Fill dst with the bytes at [off, off+len) of the file keyed @p key. */
void
fillWords(uint64_t key, uint64_t off, uint64_t len, uint8_t *dst)
{
    uint64_t w = off / 8;
    unsigned head = unsigned(off % 8);
    if (head != 0 || len % 8 != 0) {
        // Unaligned extent (host-side reads only): go word by word.
        for (uint64_t i = 0; i < len;) {
            uint64_t word = wordAt(key, w);
            unsigned n = unsigned(std::min<uint64_t>(8 - head, len - i));
            std::memcpy(dst + i, reinterpret_cast<uint8_t *>(&word) + head,
                        n);
            i += n;
            head = 0;
            ++w;
        }
        return;
    }
    for (uint64_t i = 0; i < len / 8; ++i) {
        uint64_t word = wordAt(key, w + i);
        std::memcpy(dst + 8 * i, &word, 8);
    }
}

/** True iff @p src holds exactly the bytes at [off, off+len) of the
 *  file keyed @p key XOR-ed word-wise with @p mask. @pre off and len
 *  are multiples of 8. */
bool
matchesWords(uint64_t key, uint64_t off, uint64_t len, const uint8_t *src,
             uint64_t mask = 0)
{
    uint64_t w = off / 8, diff = 0;
    for (uint64_t i = 0; i < len / 8; ++i) {
        uint64_t word;
        std::memcpy(&word, src + 8 * i, 8);
        diff |= word ^ wordAt(key, w + i) ^ mask;
    }
    return diff == 0;
}

/** Read-only file whose bytes are the word sequence of one key. */
class WordContent : public hostfs::ContentProvider
{
  public:
    explicit WordContent(uint64_t key) : key_(key) {}

    void
    readAt(uint64_t offset, uint64_t len, uint8_t *dst) override
    {
        fillWords(key_, offset, len, dst);
    }
    bool
    writeAt(uint64_t, uint64_t, const uint8_t *) override
    {
        return false;
    }
    bool writable() const override { return false; }

  private:
    uint64_t key_;
};

// ---------------------------------------------------------------------
// Per-call recording.

enum Call : uint8_t { kOpen, kRead, kWrite, kClose, kMsync, kNumCalls };
const char *const kCallName[kNumCalls] = {"gopen", "gread", "gwrite",
                                          "gclose", "gmsync"};

struct Span {
    Call call;
    uint32_t op;        ///< index of the block's workload op it is part of
    Time v0, v1;        ///< virtual start / end
    int64_t h0, h1;     ///< host start / end (ns, steady clock)
};

/** Everything one threadblock records in one round. Each block owns
 *  its log, so blocks never share a vector. */
struct BlockLog {
    unsigned gpu = 0;
    unsigned block = 0;
    bool trace = false;
    Time start = 0, end = 0;
    uint64_t calls = 0, failed = 0;
    uint64_t bytesRead = 0, bytesWritten = 0;
    /** Virtual latency of each workload op (ns). */
    std::vector<Time> opLat;
    /** Virtual latency of each call, by call (ns). */
    std::vector<Time> callLat[kNumCalls];
    std::vector<Span> spans;
};

/** Issue one API call, count it, and (when tracing) record its span.
 *  Calls of one workload op share the span's op index (the op's
 *  latency is logged after its last call). @p fn returns the call's result in the count convention (>= 0 ok,
 *  -(int)Status on failure). */
template <typename Fn>
int64_t
issue(BlockLog &log, gpu::BlockCtx &ctx, Call call, Fn &&fn)
{
    Time v0 = ctx.now();
    int64_t h0 = log.trace ? hostNs() : 0;
    int64_t rc = fn();
    if (log.trace)
        log.spans.push_back({call, uint32_t(log.opLat.size()), v0,
                             ctx.now(), h0, hostNs()});
    log.callLat[call].push_back(ctx.now() - v0);
    ++log.calls;
    if (!core::gok(rc))
        ++log.failed;
    return rc;
}

int64_t
asCount(Status st)
{
    return ok(st) ? 0 : -int64_t(st);
}

// ---------------------------------------------------------------------
// Workloads.

/** Zipf(s) sampler over n ranks by inverse CDF. */
class Zipf
{
  public:
    Zipf(unsigned n, double s) : cdf_(n)
    {
        double sum = 0;
        for (unsigned i = 0; i < n; ++i)
            cdf_[i] = (sum += 1.0 / std::pow(double(i + 1), s));
        for (double &c : cdf_)
            c /= sum;
    }

    unsigned
    sample(SplitMix64 &rng) const
    {
        auto it = std::lower_bound(cdf_.begin(), cdf_.end(),
                                   rng.nextDouble());
        return unsigned(std::min<size_t>(it - cdf_.begin(),
                                         cdf_.size() - 1));
    }

  private:
    std::vector<double> cdf_;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    unsigned gpus = 1;
    unsigned slotsPerGpu = 3;
    unsigned blocksPerGpu = 24;
    core::GpuFsParams params;

    /** Register (and warm) this round's files. */
    virtual void addFiles(core::GpufsSystem &sys, uint64_t seed) = 0;
    /** The kernel body of block log.block on GPU log.gpu. */
    virtual void run(core::GpufsSystem &sys, gpu::BlockCtx &ctx,
                     BlockLog &log) = 0;
    /** Post-run checks through the host file system. @return mismatched
     *  API calls to add to the failure count. */
    virtual uint64_t verifyAfter(core::GpufsSystem &) { return 0; }
};

void
addFileOrDie(hostfs::HostFs &fs, const std::string &path,
             std::unique_ptr<hostfs::ContentProvider> content, uint64_t size)
{
    Status st = fs.addFile(path, std::move(content), size);
    if (!ok(st)) {
        std::fprintf(stderr, "addFile(%s): %s\n", path.c_str(),
                     statusName(st));
        std::exit(1);
    }
}

/** Pull a whole file into the host page cache. */
void
warmHostCache(hostfs::HostFs &fs, const std::string &path)
{
    hostfs::FileInfo info;
    if (ok(fs.stat(path, &info)))
        fs.cache().prefault(info.ino, 0, info.size);
}

/**
 * scan: Fig. 4's streaming shape. 24 blocks each read their own
 * contiguous range of one 1 GiB file in 128 KiB greads, starting at a
 * seeded chunk of the range and wrapping; 256 KiB pages, an arena of a
 * quarter of the file, buffered backend, warm host cache, adaptive
 * read-ahead.
 */
class ScanWorkload : public Workload
{
  public:
    static constexpr uint64_t kFileBytes = 1 * GiB;
    static constexpr uint64_t kChunk = 128 * KiB;
    static constexpr char kPath[] = "/bench/scan.bin";

    ScanWorkload()
    {
        params.pageSize = 256 * KiB;
        params.cacheBytes = kFileBytes / 4;
    }

    void
    addFiles(core::GpufsSystem &sys, uint64_t seed) override
    {
        key_ = hash64(seed);
        rotation_ = hashCombine(seed, 1);
        addFileOrDie(sys.hostFs(), kPath, std::make_unique<WordContent>(key_),
                     kFileBytes);
        warmHostCache(sys.hostFs(), kPath);
    }

    void
    run(core::GpufsSystem &sys, gpu::BlockCtx &ctx, BlockLog &log) override
    {
        core::GpuFs &fs = sys.fs(log.gpu);
        const uint64_t chunks = kFileBytes / kChunk;
        const uint64_t first = chunks * log.block / blocksPerGpu;
        const uint64_t n = chunks * (log.block + 1) / blocksPerGpu - first;
        const uint64_t rot = hashCombine(rotation_, log.block) % n;
        std::vector<uint8_t> buf(kChunk);

        int fd = int(issue(log, ctx, kOpen, [&] {
            return fs.gopen(ctx, kPath, core::G_RDONLY);
        }));
        if (!core::gok(fd))
            return;
        for (uint64_t i = 0; i < n; ++i) {
            uint64_t off = (first + (rot + i) % n) * kChunk;
            Time t0 = ctx.now();
            int64_t rc = issue(log, ctx, kRead, [&] {
                return fs.gread(ctx, fd, off, kChunk, buf.data());
            });
            log.opLat.push_back(ctx.now() - t0);
            if (rc == int64_t(kChunk) &&
                matchesWords(key_, off, kChunk, buf.data())) {
                log.bytesRead += kChunk;
            } else if (core::gok(rc)) {
                ++log.failed;   // short or wrong bytes
            }
        }
        issue(log, ctx, kClose, [&] { return asCount(fs.gclose(ctx, fd)); });
    }

  private:
    uint64_t key_ = 0;
    uint64_t rotation_ = 0;
};

/**
 * lookup: small random reads through the file table. Each op is gopen
 * + one 4 KiB gread + gclose on one of 4000 one-page (64 KiB) files,
 * picked by a seeded Zipf(0.99). 512-frame arena, 1024-page victim
 * tier, direct backend (misses pay the disk), a file table large
 * enough for every file.
 */
class LookupWorkload : public Workload
{
  public:
    static constexpr unsigned kFiles = 4000;
    static constexpr uint64_t kFileBytes = 64 * KiB;
    static constexpr uint64_t kReadBytes = 4 * KiB;
    static constexpr unsigned kOpsPerBlock = 150;

    LookupWorkload() : zipf_(kFiles, 0.99)
    {
        params.pageSize = kFileBytes;
        params.cacheBytes = 512 * kFileBytes;
        params.victimCachePages = 1024;
        params.storageBackend = storage::BackendKind::Direct;
        params.maxOpenFiles = 4096;
        paths_.reserve(kFiles);
        for (unsigned i = 0; i < kFiles; ++i)
            paths_.push_back("/bench/lookup/" + std::to_string(i));
    }

    void
    addFiles(core::GpufsSystem &sys, uint64_t seed) override
    {
        seed_ = seed;
        // Seeded rank -> file permutation: which files are hot
        // changes with the seed, the popularity curve does not.
        perm_.resize(kFiles);
        for (unsigned i = 0; i < kFiles; ++i)
            perm_[i] = i;
        SplitMix64 rng(hashCombine(seed, 2));
        for (unsigned i = kFiles - 1; i > 0; --i)
            std::swap(perm_[i], perm_[rng.nextBelow(i + 1)]);
        for (unsigned i = 0; i < kFiles; ++i) {
            addFileOrDie(sys.hostFs(), paths_[i],
                         std::make_unique<WordContent>(fileKey(i)),
                         kFileBytes);
        }
    }

    void
    run(core::GpufsSystem &sys, gpu::BlockCtx &ctx, BlockLog &log) override
    {
        core::GpuFs &fs = sys.fs(log.gpu);
        SplitMix64 rng(hashCombine(seed_, 1000 + log.block));
        uint8_t buf[kReadBytes];
        for (unsigned op = 0; op < kOpsPerBlock; ++op) {
            unsigned file = perm_[zipf_.sample(rng)];
            uint64_t off = rng.nextBelow(kFileBytes / kReadBytes) * kReadBytes;
            Time t0 = ctx.now();
            int fd = int(issue(log, ctx, kOpen, [&] {
                return fs.gopen(ctx, paths_[file], core::G_RDONLY);
            }));
            if (!core::gok(fd))
                continue;
            int64_t rc = issue(log, ctx, kRead, [&] {
                return fs.gread(ctx, fd, off, kReadBytes, buf);
            });
            if (rc == int64_t(kReadBytes) &&
                matchesWords(fileKey(file), off, kReadBytes, buf)) {
                log.bytesRead += kReadBytes;
            } else if (core::gok(rc)) {
                ++log.failed;
            }
            issue(log, ctx, kClose,
                  [&] { return asCount(fs.gclose(ctx, fd)); });
            log.opLat.push_back(ctx.now() - t0);
        }
    }

  private:
    uint64_t fileKey(unsigned file) const { return hashCombine(seed_, file); }

    Zipf zipf_;
    std::vector<std::string> paths_;
    std::vector<unsigned> perm_;
    uint64_t seed_ = 0;
};

/**
 * etl_2gpu: reads beside writes on two GPUs. A HashPageGroup-sharded
 * pair of GPUs (1 slot, 12 blocks each) share one 128 MiB input;
 * every block reads half of it in 128 KiB greads from a seeded
 * rotated offset, and every 16th chunk writes a transformed 64 KiB
 * (input XOR a constant) to its own range of its GPU's output file,
 * opened G_RDWR|G_GDURABLE with the journal on (one writer GPU per
 * file). Each block ends with gmsync. Outputs are read back through
 * HostFs after the run.
 */
class EtlWorkload : public Workload
{
  public:
    static constexpr uint64_t kInputBytes = 128 * MiB;
    static constexpr uint64_t kChunk = 128 * KiB;
    static constexpr uint64_t kOutChunk = 64 * KiB;
    static constexpr unsigned kWriteEvery = 16;
    static constexpr uint64_t kXor = 0x5a5aa5a5c3c33c3cull;
    static constexpr char kInPath[] = "/bench/etl/in.bin";

    EtlWorkload()
    {
        // One slot per GPU: two block threads plus the daemon stay
        // within nproc - 1 of a 4-core host. Two slots each oversubscribe
        // it and widen the host-time spread (README.md).
        gpus = 2;
        slotsPerGpu = 1;
        blocksPerGpu = 12;
        params.pageSize = 256 * KiB;
        params.cacheBytes = 128 * MiB;
        params.shardPolicy = core::ShardPolicy::HashPageGroup;
        params.journalWriteback = true;
    }

    static uint64_t readsPerBlock() { return kInputBytes / kChunk / 2; }
    static uint64_t
    outBytesPerBlock()
    {
        return readsPerBlock() / kWriteEvery * kOutChunk;
    }
    static std::string
    outPath(unsigned gpu)
    {
        return "/bench/etl/out" + std::to_string(gpu) + ".bin";
    }

    void
    addFiles(core::GpufsSystem &sys, uint64_t seed) override
    {
        key_ = hash64(seed);
        rotation_ = hashCombine(seed, 3);
        addFileOrDie(sys.hostFs(), kInPath,
                     std::make_unique<WordContent>(key_), kInputBytes);
        warmHostCache(sys.hostFs(), kInPath);
        const uint64_t out = outBytesPerBlock() * blocksPerGpu;
        for (unsigned g = 0; g < gpus; ++g) {
            addFileOrDie(sys.hostFs(), outPath(g),
                         std::make_unique<hostfs::InMemoryContent>(
                             std::vector<uint8_t>(out)),
                         out);
            warmHostCache(sys.hostFs(), outPath(g));
        }
    }

    /** First input chunk block (gpu, block) reads. */
    uint64_t
    startChunk(unsigned gpu, unsigned block) const
    {
        return hashCombine(rotation_, gpu * blocksPerGpu + block) %
               (kInputBytes / kChunk);
    }

    void
    run(core::GpufsSystem &sys, gpu::BlockCtx &ctx, BlockLog &log) override
    {
        core::GpuFs &fs = sys.fs(log.gpu);
        const uint64_t chunks = kInputBytes / kChunk;
        const uint64_t start = startChunk(log.gpu, log.block);
        const uint64_t out_base = log.block * outBytesPerBlock();
        std::vector<uint8_t> buf(kChunk);

        int in = int(issue(log, ctx, kOpen, [&] {
            return fs.gopen(ctx, kInPath, core::G_RDONLY);
        }));
        int out = int(issue(log, ctx, kOpen, [&] {
            return fs.gopen(ctx, outPath(log.gpu),
                            core::G_RDWR | core::G_GDURABLE);
        }));
        if (core::gok(in) && core::gok(out)) {
            for (uint64_t i = 0; i < readsPerBlock(); ++i) {
                uint64_t off = (start + i) % chunks * kChunk;
                Time t0 = ctx.now();
                int64_t rc = issue(log, ctx, kRead, [&] {
                    return fs.gread(ctx, in, off, kChunk, buf.data());
                });
                log.opLat.push_back(ctx.now() - t0);
                if (rc != int64_t(kChunk) ||
                    !matchesWords(key_, off, kChunk, buf.data())) {
                    if (core::gok(rc))
                        ++log.failed;
                    continue;
                }
                log.bytesRead += kChunk;
                if (i % kWriteEvery != 0)
                    continue;
                for (uint64_t w = 0; w < kOutChunk / 8; ++w) {
                    uint64_t word;
                    std::memcpy(&word, buf.data() + 8 * w, 8);
                    word ^= kXor;
                    std::memcpy(buf.data() + 8 * w, &word, 8);
                }
                uint64_t out_off = out_base + i / kWriteEvery * kOutChunk;
                t0 = ctx.now();
                rc = issue(log, ctx, kWrite, [&] {
                    return fs.gwrite(ctx, out, out_off, kOutChunk,
                                     buf.data());
                });
                log.opLat.push_back(ctx.now() - t0);
                if (rc == int64_t(kOutChunk))
                    log.bytesWritten += kOutChunk;
                else if (core::gok(rc))
                    ++log.failed;
            }
            issue(log, ctx, kMsync,
                  [&] { return asCount(fs.gmsync(ctx, out)); });
        }
        if (core::gok(out))
            issue(log, ctx, kClose,
                  [&] { return asCount(fs.gclose(ctx, out)); });
        if (core::gok(in))
            issue(log, ctx, kClose,
                  [&] { return asCount(fs.gclose(ctx, in)); });
    }

    /** Read every output chunk back through HostFs; each one that does
     *  not hold its input chunk XOR kXor counts as a failed gwrite. */
    uint64_t
    verifyAfter(core::GpufsSystem &sys) override
    {
        hostfs::HostFs &hfs = sys.hostFs();
        const uint64_t chunks = kInputBytes / kChunk;
        const uint64_t per_block = readsPerBlock() / kWriteEvery;
        std::vector<uint8_t> buf(kOutChunk);
        uint64_t bad = 0;
        for (unsigned g = 0; g < gpus; ++g) {
            int fd = hfs.open(outPath(g), hostfs::O_RDONLY_F);
            if (fd < 0) {
                bad += blocksPerGpu * per_block;
                continue;
            }
            for (unsigned b = 0; b < blocksPerGpu; ++b) {
                for (uint64_t k = 0; k < per_block; ++k) {
                    uint64_t out_off = b * outBytesPerBlock() + k * kOutChunk;
                    uint64_t in_off =
                        (startChunk(g, b) + k * kWriteEvery) % chunks *
                        kChunk;
                    hostfs::IoResult r =
                        hfs.pread(fd, buf.data(), kOutChunk, out_off);
                    if (!ok(r.status) || r.bytes != kOutChunk ||
                        !matchesWords(key_, in_off, kOutChunk, buf.data(),
                                      kXor)) {
                        ++bad;
                    }
                }
            }
            hfs.close(fd);
        }
        return bad;
    }

  private:
    uint64_t key_ = 0;
    uint64_t rotation_ = 0;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "scan")
        return std::make_unique<ScanWorkload>();
    if (name == "lookup")
        return std::make_unique<LookupWorkload>();
    if (name == "etl_2gpu")
        return std::make_unique<EtlWorkload>();
    return nullptr;
}

// ---------------------------------------------------------------------
// One round.

struct Round {
    double refS = 0;        ///< CPU time of the reference loop
    double setupS = 0;      ///< process CPU time of the set-up
    double hostS = 0;       ///< wall time of the kernel phase
    double cpuS = 0;        ///< process CPU time of the kernel phase
    Time span = 0;          ///< virtual kernel span
    uint64_t calls = 0, failed = 0, ops = 0;
    uint64_t bytesRead = 0, bytesWritten = 0;
    std::vector<BlockLog> logs;
    Metrics layer;          ///< per-layer counters of this round
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Sum one counter over every GPU's GpuFs stat set. */
uint64_t
fsCounter(core::GpufsSystem &sys, const char *name)
{
    uint64_t sum = 0;
    for (unsigned g = 0; g < sys.numGpus(); ++g)
        sum += sys.fs(g).stats().counter(name).get();
    return sum;
}

/** Snapshot the counters and busy times of every layer. */
Metrics
layerCounters(core::GpufsSystem &sys, const Round &r, unsigned slots)
{
    Metrics m;
    auto count = [&](const char *n, double v) { m[n] = {v, "count"}; };
    auto frac = [&](const char *n, double v) { m[n] = {v, "ratio"}; };
    auto bytes = [&](const char *n, double v) { m[n] = {v, "bytes"}; };
    auto d = sys.daemon().stats().snapshot();
    auto fc = [&](const char *n) { return double(fsCounter(sys, n)); };
    const double span = double(r.span);

    // gpufs: API layer and file table.
    frac("gpufs.open_rpcs_per_open", ratio(fc("open_rpcs"), fc("opens")));

    // buffer_cache: cache, radix, frames, read-ahead.
    double hits = fc("cache_hits"), misses = fc("cache_misses");
    frac("buffer_cache.hit_ratio", ratio(hits, hits + misses));
    count("buffer_cache.misses", misses);
    count("buffer_cache.pages_reclaimed", fc("pages_reclaimed"));
    count("buffer_cache.read_rpcs", fc("read_rpcs"));
    count("buffer_cache.batch_read_rpcs", fc("batch_read_rpcs"));
    m["buffer_cache.rpcs_per_MB"] = {
        ratio(fc("read_rpcs") + fc("batch_read_rpcs"),
              double(r.bytesRead) / 1e6),
        "1/MB"};
    count("buffer_cache.batch_write_rpcs", fc("batch_write_rpcs"));
    count("buffer_cache.batch_write_pages", fc("batch_write_pages"));
    double lf = fc("radix_lockfree_walks"), lk = fc("radix_locked_walks");
    frac("buffer_cache.radix_lockfree_frac", ratio(lf, lf + lk));
    double ra = fc("ra_issued");
    count("readahead.issued", ra);
    frac("readahead.hit_ratio", ratio(fc("ra_hit"), ra));
    count("readahead.wasted", fc("ra_wasted"));

    // victim: host-RAM tier (daemon-side probes).
    double vh = double(d["vc_hits"]);
    frac("victim.hit_ratio",
         ratio(vh, vh + double(d["vc_misses"] + d["vc_version_stale"])));
    count("victim.inserts", double(d["vc_inserts"]));
    count("victim.version_stale", double(d["vc_version_stale"]));

    // shard: peer forwarding (requesting-GPU side).
    double fwd = fc("peer_pages_forwarded");
    frac("shard.peer_forwarded_frac",
         ratio(fwd, fwd + fc("peer_pages_fallback")));
    count("shard.peer_read_rpcs", fc("peer_read_rpcs"));
    count("shard.peer_write_rpcs", fc("peer_write_rpcs"));

    // rpc: queues and daemon.
    uint64_t subs = 0, stalls = 0, suppressed = 0;
    unsigned max_inflight = 0;
    for (unsigned g = 0; g < sys.numGpus(); ++g) {
        rpc::RpcQueue &q = sys.rpcQueue(g);
        subs += q.submissions();
        stalls += q.fullQueueStalls();
        suppressed += q.doorbellRingsSuppressed();
        max_inflight = std::max(max_inflight, q.maxInFlightSlots());
    }
    count("rpc.submissions", double(subs));
    count("rpc.full_queue_stalls", double(stalls));
    count("rpc.max_inflight", double(max_inflight));
    frac("rpc.rings_suppressed_frac", ratio(double(suppressed), double(subs)));
    count("rpc.daemon.requests_served", double(d["requests_served"]));
    count("rpc.daemon.coalesced_rpcs", double(d["coalesced_rpcs"]));
    frac("rpc.daemon.host_read_calls_per_read_rpc",
         ratio(double(d["host_read_calls"]),
               fc("read_rpcs") + fc("batch_read_rpcs")));

    // hostfs: journal.
    double commits = double(d["journal_commits"]);
    double syncs = double(d["journal_group_syncs"]);
    count("hostfs.journal.commits", commits);
    count("hostfs.journal.group_syncs", syncs);
    frac("hostfs.journal.commits_per_sync", ratio(commits, syncs));

    // storage: backends.
    count("storage.reads", double(d["storage_reads"]));
    bytes("storage.read_bytes", double(d["storage_read_bytes"]));
    count("storage.writes", double(d["storage_writes"]));
    bytes("storage.write_bytes", double(d["storage_write_bytes"]));
    frac("storage.write_bytes_per_user_byte",
         ratio(double(d["storage_write_bytes"]), double(r.bytesWritten)));

    // sim: resource timelines, busy / span (per-GPU and per-pair
    // channels: the most loaded one).
    sim::SimContext &s = sys.sim();
    frac("sim.cpu_io.busy_frac", ratio(double(s.cpuIo.busyTime()), span));
    frac("sim.disk.busy_frac", ratio(double(s.disk.busyTime()), span));
    Time h2d = 0, d2h = 0;
    for (unsigned g = 0; g < sys.numGpus(); ++g) {
        h2d = std::max(h2d, sys.device(g).pcieH2D().busyTime());
        d2h = std::max(d2h, sys.device(g).pcieD2H().busyTime());
    }
    frac("sim.pcie_h2d.busy_frac", ratio(double(h2d), span));
    frac("sim.pcie_d2h.busy_frac", ratio(double(d2h), span));
    Time p2p = 0;
    for (unsigned a = 0; a < sys.numGpus(); ++a)
        for (unsigned b = 0; b < sys.numGpus(); ++b)
            if (a != b)
                p2p = std::max(p2p, s.p2p(a, b).busyTime());
    frac("sim.p2p.busy_frac", ratio(double(p2p), span));

    // gpu: block residency on the MP slots.
    double block_time = 0;
    for (const BlockLog &l : r.logs)
        block_time += double(l.end - l.start);
    frac("gpu.slot_occupancy",
         ratio(block_time, span * double(slots * sys.numGpus())));
    return m;
}

Round
runRound(Workload &w, uint64_t seed, bool traced)
{
    Round r;
    sim::HwParams hw;
    hw.mpCount = w.slotsPerGpu;
    hw.blocksPerMp = 1;

    r.refS = referenceLoopS();
    double cpu0 = processCpuS();
    auto sys = std::make_unique<core::GpufsSystem>(w.gpus, w.params, hw);
    w.addFiles(*sys, seed);
    r.setupS = processCpuS() - cpu0;

    r.logs.resize(size_t(w.gpus) * w.blocksPerGpu);
    std::vector<gpu::KernelStats> ks(w.gpus);
    auto launchGpu = [&](unsigned g) {
        ks[g] = gpu::launch(sys->device(g), w.blocksPerGpu, 512,
                            [&, g](gpu::BlockCtx &ctx) {
            BlockLog &log = r.logs[g * w.blocksPerGpu + ctx.blockId()];
            log.gpu = g;
            log.block = ctx.blockId();
            log.trace = traced;
            log.start = ctx.now();
            w.run(*sys, ctx, log);
            log.end = ctx.now();
        });
    };
    auto t0 = Clock::now();
    cpu0 = processCpuS();
    std::vector<std::thread> hosts;
    for (unsigned g = 1; g < w.gpus; ++g)
        hosts.emplace_back(launchGpu, g);
    launchGpu(0);
    for (auto &t : hosts)
        t.join();
    r.hostS = secondsSince(t0);
    r.cpuS = processCpuS() - cpu0;

    Time start = ks[0].start, end = ks[0].end;
    for (const auto &k : ks) {
        start = std::min(start, k.start);
        end = std::max(end, k.end);
    }
    r.span = end - start;
    for (const BlockLog &l : r.logs) {
        r.calls += l.calls;
        r.failed += l.failed;
        r.ops += l.opLat.size();
        r.bytesRead += l.bytesRead;
        r.bytesWritten += l.bytesWritten;
    }
    // Counters first: the read-back below goes through HostFs and
    // would add to the host-side resource timelines.
    r.layer = layerCounters(*sys, r, w.slotsPerGpu);
    r.failed += w.verifyAfter(*sys);
    sys.reset();
    return r;
}

// ---------------------------------------------------------------------
// Reporting.

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Percentile @p q in [0,1] by linear interpolation between ranks. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

/** Mean of the largest @p share of @p v (at least one value). It
 *  averages the whole tail beyond a percentile, so it reads steadier
 *  run to run than that percentile does. */
double
tailMean(std::vector<double> v, double share)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end(), std::greater<double>());
    size_t n = std::max<size_t>(1, size_t(share * double(v.size())));
    double sum = 0;
    for (size_t i = 0; i < n; ++i)
        sum += v[i];
    return sum / double(n);
}

double
peakRssMiB()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;   // ru_maxrss is KiB on Linux
}

void
writeChromeTrace(const std::string &path, const Round &r)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
        return;
    }
    int64_t origin = INT64_MAX;
    for (const BlockLog &l : r.logs)
        for (const Span &s : l.spans)
            origin = std::min(origin, s.h0);
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    char line[320];
    for (const BlockLog &l : r.logs) {
        for (const Span &s : l.spans) {
            std::snprintf(line, sizeof(line),
                          "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,"
                          "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                          "{\"op\":%u,\"virt_start_us\":%.3f,"
                          "\"virt_end_us\":%.3f}}",
                          first ? "" : ",", kCallName[s.call], l.gpu,
                          l.block, double(s.h0 - origin) / 1e3,
                          double(s.h1 - s.h0) / 1e3, s.op, double(s.v0) / 1e3,
                          double(s.v1) / 1e3);
            out << line;
            first = false;
        }
    }
    out << "\n]}\n";
}

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "%s\nusage: perfbench_driver --workload scan|lookup|"
                 "etl_2gpu --seed N --seconds S --trace 0|1 "
                 "[--trace-out PATH]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (k == "--trace-out") {
            a.traceOut = v;
        } else {
            usage(("unknown option " + k).c_str());
        }
        if (end && *end)
            usage(("bad value for " + k).c_str());
    }
    if (a.seconds <= 0)
        usage("--seconds must be positive");
    return a;
}

void
printMetric(const char *name, double value, const char *unit)
{
    std::printf("# %-44s %14.4f %s\n", name, value, unit);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    // A fixed mmap threshold sends every large buffer (frame arenas,
    // file images) straight back to the OS when a round frees it, so
    // peak RSS is the largest round's footprint and not whatever heap
    // fragmentation earlier rounds left behind.
    mallopt(M_MMAP_THRESHOLD, 1 << 20);
    std::unique_ptr<Workload> w = makeWorkload(args.workload);
    if (!w)
        usage(("unknown workload '" + args.workload + "'").c_str());

    // Rounds until the time budget is spent. With tracing, odd rounds
    // record spans and even rounds do not, so one run yields both the
    // per-layer figures and the tracing overhead. Each round is folded
    // into the tally as it ends; only the latest traced round is kept
    // whole, for the trace file. Every end-to-end figure except peak
    // RSS is a median over rounds of a per-round value, so outside load
    // that slows fewer than half of a run's rounds does not move it.
    uint64_t calls = 0, failed = 0;
    unsigned nrounds = 0;
    std::vector<double> thr, opsps, tail1;
    // Host figures, "norm" ones scaled to the nominal host speed. Per
    // API call: CPU time of untraced and traced rounds, raw CPU and wall
    // time of untraced rounds.
    std::vector<double> setup_norm, setup_raw, ref;
    std::vector<double> cpu_untraced, cpu_traced, cpu_raw, wall_untraced;
    std::vector<double> op_lat;
    std::vector<double> call_virt[kNumCalls], call_host[kNumCalls];
    std::map<std::string, std::vector<double>> layer;
    std::map<std::string, const char *> layer_unit;
    Round last_traced;
    auto t0 = Clock::now();
    while (nrounds < kMinRounds || secondsSince(t0) < args.seconds) {
        bool traced = args.trace && nrounds % 2 == 1;
        Round r = runRound(*w, hashCombine(args.seed, nrounds), traced);
        std::printf("# round %u%s: span %.3f ms virt, kernel %.3f s host, "
                    "cpu %.3f s, setup %.3f s, ref %.3f ms, %llu calls, "
                    "%llu failed\n",
                    nrounds, traced ? " (traced)" : "",
                    double(r.span) / 1e6, r.hostS, r.cpuS, r.setupS,
                    r.refS * 1e3,
                    static_cast<unsigned long long>(r.calls),
                    static_cast<unsigned long long>(r.failed));
        std::fflush(stdout);
        ++nrounds;

        calls += r.calls;
        failed += r.failed;
        const double speed = kRefNominalS / r.refS;
        ref.push_back(r.refS * 1e3);
        setup_raw.push_back(r.setupS);
        setup_norm.push_back(r.setupS * speed);
        double span_s = double(r.span) / 1e9;
        thr.push_back(double(r.bytesRead + r.bytesWritten) / 1e6 / span_s);
        opsps.push_back(double(r.ops) / span_s);
        double per_call = 1e6 / double(std::max<uint64_t>(1, r.calls));
        (traced ? cpu_traced : cpu_untraced)
            .push_back(r.cpuS * per_call * speed);
        if (!traced) {
            cpu_raw.push_back(r.cpuS * per_call);
            wall_untraced.push_back(r.hostS * per_call);
        }
        std::vector<double> round_lat;
        for (const BlockLog &l : r.logs) {
            for (Time t : l.opLat)
                round_lat.push_back(double(t) / 1e3);
            for (unsigned c = 0; c < kNumCalls; ++c)
                for (Time t : l.callLat[c])
                    call_virt[c].push_back(double(t) / 1e3);
            for (const Span &sp : l.spans)
                call_host[sp.call].push_back(double(sp.h1 - sp.h0));
        }
        tail1.push_back(tailMean(round_lat, 0.01));
        op_lat.insert(op_lat.end(), round_lat.begin(), round_lat.end());
        for (const auto &kv : r.layer) {
            layer[kv.first].push_back(kv.second.value);
            layer_unit[kv.first] = kv.second.unit;
        }
        if (traced)
            last_traced = std::move(r);
    }

    struct Out {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Out> e2e = {
        {"throughput_MBps", median(thr), "MB/s"},
        {"ops_per_s", median(opsps), "1/s"},
        {"op_tail1_us", median(tail1), "us"},
        {"host_cpu_norm_us_per_op", median(cpu_untraced), "us"},
        {"setup_s", median(setup_norm), "s"},
        {"peak_rss_MiB", peakRssMiB(), "MiB"},
    };

    std::vector<Out> per_layer;
    if (args.trace) {
        for (unsigned c = 0; c < kNumCalls; ++c) {
            per_layer.push_back({std::string("gpufs.") + kCallName[c] +
                                     ".host_ns_p50",
                                 median(call_host[c]), "ns"});
        }
        per_layer.push_back({"gpufs.gread.virt_us_p99",
                             percentile(call_virt[kRead], 0.99), "us"});
        per_layer.push_back({"gpufs.gmsync.virt_us_p50",
                             median(call_virt[kMsync]), "us"});
        for (const auto &kv : layer)
            per_layer.push_back({kv.first, median(kv.second),
                                 layer_unit[kv.first]});
        per_layer.push_back({"op.virt_us_p50", percentile(op_lat, 0.50),
                             "us"});
        per_layer.push_back({"op.virt_us_p99", percentile(op_lat, 0.99),
                             "us"});
        per_layer.push_back({"op.virt_us_p999", percentile(op_lat, 0.999),
                             "us"});
        per_layer.push_back({"op.samples", double(op_lat.size()), "count"});
        per_layer.push_back({"trace.overhead_us_per_op",
                             median(cpu_traced) - median(cpu_untraced),
                             "us"});
        per_layer.push_back({"host.cpu_us_per_op", median(cpu_raw), "us"});
        per_layer.push_back({"host.wall_us_per_op", median(wall_untraced),
                             "us"});
        per_layer.push_back({"host.setup_cpu_s", median(setup_raw), "s"});
        per_layer.push_back({"host.ref_loop_ms", median(ref), "ms"});
        if (!args.traceOut.empty()) {
            writeChromeTrace(args.traceOut, last_traced);
            std::printf("# trace: %s\n", args.traceOut.c_str());
        }
    }

    std::printf("# workload %s, seed %llu, %u rounds, %zu op samples\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), nrounds,
                op_lat.size());
    for (const Out &o : e2e)
        printMetric(o.name.c_str(), o.value, o.unit.c_str());
    if (args.trace) {
        printMetric("host_cpu_norm_us_per_op.traced", median(cpu_traced),
                    "us");
        for (const Out &o : per_layer)
            printMetric(o.name.c_str(), o.value, o.unit.c_str());
    }

    const std::vector<Out> &report = args.trace ? per_layer : e2e;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(calls),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < report.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", report[i].name.c_str(), report[i].value,
                    report[i].unit.c_str());
    }
    std::printf("}}\n");
    return 0;
}
