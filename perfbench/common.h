/**
 * @file
 * Shared pieces of the benchmark driver: clocks, the self-checking
 * value encoding and the model every read is checked against, exact
 * latency percentiles, sampled spans, key-choice distributions and a
 * minimal JSON writer.
 *
 * Everything here is the benchmark's own code; it calls no Mnemosyne
 * function, so the checks stay independent of the program they judge.
 */

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/** CLOCK_MONOTONIC in ns: the same clock as Python's
 *  time.monotonic_ns(), so run.py can subtract its own timestamps. */
inline uint64_t
nowNs()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return uint64_t(ts.tv_sec) * 1000000000ull + uint64_t(ts.tv_nsec);
}

/** splitmix64: seeds every per-thread / per-connection generator. */
inline uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** xorshift64*: the workload's only source of randomness. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : s_(mix64(seed) | 1) {}
    uint64_t
    next()
    {
        s_ ^= s_ >> 12;
        s_ ^= s_ << 25;
        s_ ^= s_ >> 27;
        return s_ * 0x2545f4914f6cdd1dull;
    }
    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }
    /** Uniform in [0, 1). */
    double unit() { return double(next() >> 11) * 0x1.0p-53; }

  private:
    uint64_t s_;
};

/**
 * Zipf-distributed ranks in [0, n) (Gray et al.'s method, as in YCSB's
 * ZipfianGenerator).  Rank 0 is the hottest.
 */
class Zipf
{
  public:
    Zipf(uint64_t n, double theta) : n_(n), theta_(theta)
    {
        double zetan = 0;
        for (uint64_t i = 1; i <= n; ++i)
            zetan += 1.0 / std::pow(double(i), theta);
        const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
        zetan_ = zetan;
        alpha_ = 1.0 / (1.0 - theta);
        eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
               (1.0 - zeta2 / zetan);
    }
    uint64_t
    next(Rng &rng) const
    {
        const double u = rng.unit();
        const double uz = u * zetan_;
        if (uz < 1.0)
            return 0;
        if (uz < 1.0 + std::pow(0.5, theta_))
            return 1;
        const uint64_t r = uint64_t(
            double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
        return r < n_ ? r : n_ - 1;
    }

  private:
    uint64_t n_;
    double theta_, zetan_ = 0, alpha_ = 0, eta_ = 0;
};

/** Fixed-width key for key id @p id (16 bytes). */
inline std::string
keyOf(uint64_t id)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "pb%014llu", (unsigned long long)id);
    return std::string(buf, 16);
}

inline uint64_t
fnv1a(const char *p, size_t n)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < n; ++i) {
        h ^= uint8_t(p[i]);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Smallest value the encoding fits in: key id, seq, checksum. */
inline constexpr size_t kMinValueBytes = 24;

/**
 * A value that names its own key and write: bytes [0,8) key id,
 * [8,16) sequence number of the write that produced it, filler derived
 * from both, and an FNV-1a checksum of everything before it in the last
 * 8 bytes.  A torn, stale, misdirected or corrupted value fails
 * checkValue().
 */
inline void
makeValue(uint64_t key, uint64_t seq, size_t len, std::string *out)
{
    out->resize(len);
    char *p = out->data();
    std::memcpy(p, &key, 8);
    std::memcpy(p + 8, &seq, 8);
    uint64_t f = mix64(key * 0x9e3779b97f4a7c15ull ^ seq);
    for (size_t i = 16; i < len - 8; ++i) {
        p[i] = char('a' + f % 26);
        f = f * 6364136223846793005ull + 1442695040888963407ull;
    }
    const uint64_t sum = fnv1a(p, len - 8);
    std::memcpy(p + len - 8, &sum, 8);
}

/** "" when @p v is exactly the value makeValue(key, seq, len) gives. */
inline std::string
checkValue(std::string_view v, uint64_t key, uint64_t seq, size_t len)
{
    if (v.size() != len)
        return "value length " + std::to_string(v.size()) + " != " +
               std::to_string(len);
    if (len < kMinValueBytes)
        return "value too short";
    uint64_t k, s, sum;
    std::memcpy(&k, v.data(), 8);
    std::memcpy(&s, v.data() + 8, 8);
    std::memcpy(&sum, v.data() + len - 8, 8);
    if (sum != fnv1a(v.data(), len - 8))
        return "checksum mismatch";
    if (k != key)
        return "value names key " + std::to_string(k);
    if (s != seq)
        return "value seq " + std::to_string(s) + " != " + std::to_string(seq);
    std::string want;
    makeValue(key, seq, len, &want);
    if (v != want)
        return "filler mismatch";
    return "";
}

/** What the model says a key holds: the last write issued for it. */
struct KeyState {
    uint32_t seq = 0;       ///< sequence number of the last write
    uint16_t len = 0;       ///< value length of the last PUT
    bool present = false;   ///< false after a DEL (or never written)
};

/** "" when a read of @p key that returned (found, value) matches @p m. */
inline std::string
checkRead(const KeyState &m, uint64_t key, bool found, std::string_view value)
{
    if (!m.present)
        return found ? "deleted key " + std::to_string(key) + " is present"
                     : "";
    if (!found)
        return "key " + std::to_string(key) + " is missing";
    std::string why = checkValue(value, key, m.seq, m.len);
    return why.empty() ? "" : "key " + std::to_string(key) + ": " + why;
}

/** "" when the accounts still sum to @p total (wrapping arithmetic, as
 *  transfers are applied). */
inline std::string
checkBalances(const std::vector<uint64_t> &bal, uint64_t total)
{
    uint64_t s = 0;
    for (uint64_t b : bal)
        s += b;
    if (s != total)
        return "account sum " + std::to_string(int64_t(s)) +
               " != " + std::to_string(int64_t(total));
    return "";
}

/** Check failures of one run, capped so one systematic fault does not
 *  flood the output. */
class Errors
{
  public:
    void
    add(std::string why)
    {
        if (v_.size() < kMax)
            v_.push_back(std::move(why));
        else if (v_.size() == kMax)
            v_.push_back("...");
    }
    void
    append(const Errors &o)
    {
        for (const std::string &e : o.v_)
            add(e);
    }
    /** JSON array of {"e": why} objects. */
    std::string json() const;

  private:
    static constexpr size_t kMax = 8;
    std::vector<std::string> v_;
};

/** Every latency of one kind, in ns; exact percentiles at the end. */
class Latencies
{
  public:
    void add(uint64_t ns) { ns_.push_back(ns); }
    size_t count() const { return ns_.size(); }
    void append(const Latencies &o)
    {
        ns_.insert(ns_.end(), o.ns_.begin(), o.ns_.end());
    }
    /** Nearest-rank percentile in microseconds (0 when empty). */
    double
    pctUs(double q)
    {
        if (ns_.empty())
            return 0;
        size_t rank = size_t(std::ceil(q * double(ns_.size())));
        rank = std::clamp<size_t>(rank, 1, ns_.size()) - 1;
        std::nth_element(ns_.begin(), ns_.begin() + rank, ns_.end());
        return double(ns_[rank]) / 1000.0;
    }

  private:
    std::vector<uint64_t> ns_;
};

/**
 * The timed phase cut into quarter-second slices, with the reads,
 * writes and completions of each.  run.py reports the median slice, so a host
 * stall that covers fewer than half of the slices does not move a
 * metric.  An operation counts in the slice in which it completed;
 * replies that arrive after the deadline count in the last slice.
 */
class Slices
{
  public:
    static constexpr double kSeconds = 0.25;    ///< length of a slice

    void
    start(uint64_t startNs, double seconds)
    {
        const size_t n = std::max<size_t>(1, size_t(seconds / kSeconds));
        start_ = startNs;
        len_ = uint64_t(seconds * 1e9) / n;
        ops_.assign(n, 0);
        writes_.assign(n, Latencies());
        reads_.assign(n, Latencies());
    }
    void
    add(bool read, uint64_t doneNs, uint64_t latNs)
    {
        const size_t i =
            std::min<size_t>(ops_.size() - 1, (doneNs - start_) / len_);
        ++ops_[i];
        (read ? reads_ : writes_)[i].add(latNs);
    }
    /** Merge another thread's slices over the same timed phase. */
    void
    append(const Slices &o)
    {
        for (size_t i = 0; i < ops_.size(); ++i) {
            ops_[i] += o.ops_[i];
            writes_[i].append(o.writes_[i]);
            reads_[i].append(o.reads_[i]);
        }
    }
    /** {"seconds": s, "ops": [...], "write_p50_us": [...], ...}. */
    std::string
    json()
    {
        std::string out = "{\"seconds\":" + std::to_string(len_ / 1e9) +
                          ",\"ops\":[";
        for (size_t i = 0; i < ops_.size(); ++i)
            out += (i ? "," : "") + std::to_string(ops_[i]);
        out += "]";
        pcts(out, "write_p50_us", writes_, 0.50);
        pcts(out, "write_p95_us", writes_, 0.95);
        pcts(out, "write_p99_us", writes_, 0.99);
        pcts(out, "read_p50_us", reads_, 0.50);
        pcts(out, "read_p95_us", reads_, 0.95);
        pcts(out, "read_p99_us", reads_, 0.99);
        return out + "}";
    }

  private:
    static void
    pcts(std::string &out, const char *key, std::vector<Latencies> &v,
         double q)
    {
        out += std::string(",\"") + key + "\":[";
        for (size_t i = 0; i < v.size(); ++i) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%s%.3f", i ? "," : "",
                          v[i].pctUs(q));
            out += buf;
        }
        out += "]";
    }

    uint64_t start_ = 0, len_ = 1;
    std::vector<uint64_t> ops_{0};
    std::vector<Latencies> writes_{1}, reads_{1};
};

/** One recorded span (Chrome "complete" event). */
struct Span {
    const char *name;
    uint64_t start_ns;
    uint64_t end_ns;
    uint64_t id;        ///< request / operation id
    uint32_t lane;      ///< thread or connection
};

/** Minimal JSON object writer for the driver's one-line results. */
class Json
{
  public:
    Json &
    num(const char *k, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
        return raw(k, buf);
    }
    Json &
    u64(const char *k, uint64_t v)
    {
        return raw(k, std::to_string(v));
    }
    Json &
    str(const char *k, const std::string &v)
    {
        std::string q = "\"";
        for (char c : v) {
            if (c == '"' || c == '\\')
                q += '\\';
            if (uint8_t(c) < 0x20)
                q += ' ';
            else
                q += c;
        }
        return raw(k, q + "\"");
    }
    /** @p v must already be JSON. */
    Json &
    raw(const char *k, const std::string &v)
    {
        s_ += s_.empty() ? "{" : ",";
        s_ += "\"";
        s_ += k;
        s_ += "\":";
        s_ += v;
        return *this;
    }
    std::string done() const { return s_.empty() ? "{}" : s_ + "}"; }

  private:
    std::string s_;
};

inline std::string
Errors::json() const
{
    std::string s = "[";
    for (size_t i = 0; i < v_.size(); ++i)
        s += (i ? "," : "") + Json().str("e", v_[i]).done();
    return s + "]";
}

/** Write @p spans as one JSON array of Chrome trace events. */
inline bool
writeSpans(const std::string &path, const std::vector<Span> &spans,
           uint32_t pid)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("[", f);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu}}",
                     i ? ",\n" : "", s.name, pid, s.lane,
                     double(s.start_ns) / 1000.0,
                     double(s.end_ns - s.start_ns) / 1000.0,
                     (unsigned long long)s.id);
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_H_
