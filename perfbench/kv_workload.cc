// Load client for the KV service workloads.  run.py launches mn_kvd
// once per command and steers this client over stdin, one line each:
//
//   prefill <port>  insert every key; print "ready <ns>"
//   timed <port>    STAT, the timed phase, STAT; print "done <json>"
//   probe <port>    time the first correct read; print "probed <ns>"
//   verify <port>   the same, then read back every key; print
//                   "verified <json>"
//
// One thread drives four connections with up to eight requests in
// flight on each (a closed loop: a slot is reused only after its reply
// arrives).  Each connection owns a disjoint key slice and values
// encode (key, seq, checksum).  The protocol promises per-connection
// FIFO and nothing across connections, so a GET must return exactly
// the last write issued on its own connection for that key.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <deque>
#include <fcntl.h>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "driver.h"

#include "server/kv_protocol.h"

namespace perfbench {

namespace {

using mnemosyne::server::Op;
using mnemosyne::server::Status;
namespace proto = mnemosyne::server;

constexpr int kConns = 4;
constexpr size_t kDepth = 8;
constexpr size_t kVerifyDepth = 32;
constexpr size_t kValueBytes = 100;
constexpr size_t kAltValueBytes = 120;  ///< target of a resizing PUT
constexpr size_t kPrefillBatch = 12;   ///< = proto::kMaxBatchOps
constexpr uint64_t kSampleEvery = 64;

/** The two traffic mixes. */
struct Shape {
    uint64_t keysPerConn;
    bool zipf;              ///< Zipf(0.99) within the slice, else uniform
    unsigned getPct;        ///< share of GETs
    unsigned delPct;        ///< share of DELs (of all ops)
    unsigned resizePct;     ///< share of resizing PUTs (of all ops)
};

const Shape kWriteZipf{8192, true, 10, 3, 5};
const Shape kReadUniform{65536, false, 95, 0, 0};

/** One request awaiting its reply. */
struct Pending {
    uint64_t id;
    uint64_t key;
    Op op;
    KeyState expect;        ///< GET: what the model said at send time
    uint64_t sentNs;
    uint32_t bytes;         ///< key + value bytes of a write
    bool sampled;
};

struct Conn {
    int fd = -1;
    uint32_t lane = 0;
    std::vector<uint8_t> out;
    size_t outOff = 0;
    std::vector<uint8_t> in;
    size_t inOff = 0;
    std::deque<Pending> inflight;
    uint64_t nextId = 1;
};

/** Results of one phase over all connections. */
struct Tally {
    Latencies all;
    Slices slices;      ///< reads and writes of the timed phase
    uint64_t ops = 0, reads = 0, writes = 0, ackedWrites = 0, ackBytes = 0,
             failed = 0;
    std::vector<Span> spans;
    Errors errors;
};

bool
connectTo(Conn &c, uint16_t port)
{
    c.fd = socket(AF_INET, SOCK_STREAM, 0);
    if (c.fd < 0)
        return false;
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(c.fd, reinterpret_cast<sockaddr *>(&sa), sizeof(sa)) != 0)
        return false;
    int one = 1;
    setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(c.fd, F_SETFL, fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    return true;
}

void
closeAll(std::vector<Conn> &conns)
{
    for (Conn &c : conns) {
        if (c.fd >= 0)
            close(c.fd);
        c = Conn{};
    }
}

void
queueRequest(Conn &c, Op op, uint64_t key, std::string_view k, std::string_view v,
     KeyState expect, bool sampled)
{
    const uint64_t id = c.nextId++;
    proto::appendRequest(c.out, id, op, k, v);
    c.inflight.push_back({id, key, op, expect, nowNs(),
                          uint32_t(k.size() + v.size()), sampled});
}

bool
flushOut(Conn &c)
{
    while (c.outOff < c.out.size()) {
        const ssize_t n =
            write(c.fd, c.out.data() + c.outOff, c.out.size() - c.outOff);
        if (n < 0) {
            if (errno == EAGAIN || errno == EINTR)
                return true;
            return false;
        }
        c.outOff += size_t(n);
    }
    c.out.clear();
    c.outOff = 0;
    return true;
}

/**
 * Drive every connection until @p more stops producing requests and
 * all replies are in.  @p more(conn, index) queues at most one request
 * and returns false when that connection has nothing more to send;
 * @p depth bounds the requests in flight per connection; @p reply is
 * called for each response with its request.
 */
bool
pump(std::vector<Conn> &conns, size_t depth,
     const std::function<bool(Conn &, int)> &more,
     const std::function<void(Conn &, const Pending &,
                              const proto::ResponseView &)> &reply,
     Tally &t)
{
    std::vector<bool> open(conns.size(), true);
    std::vector<pollfd> pfds(conns.size());
    for (;;) {
        bool busy = false;
        for (size_t i = 0; i < conns.size(); ++i) {
            Conn &c = conns[i];
            while (open[i] && c.inflight.size() < depth)
                if (!more(c, int(i)))
                    open[i] = false;
            if (!flushOut(c)) {
                t.errors.add("write to server failed");
                return false;
            }
            busy = busy || !c.inflight.empty();
            pfds[i] = {c.fd, short(POLLIN | (c.out.empty() ? 0 : POLLOUT)),
                       0};
        }
        if (!busy)
            return true;
        if (poll(pfds.data(), pfds.size(), 30000) <= 0) {
            t.errors.add("no reply from server within 30 s");
            return false;
        }
        for (size_t i = 0; i < conns.size(); ++i) {
            if (!(pfds[i].revents & (POLLIN | POLLERR | POLLHUP)))
                continue;
            Conn &c = conns[i];
            uint8_t buf[65536];
            const ssize_t n = read(c.fd, buf, sizeof(buf));
            if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
                t.errors.add("server closed the connection");
                return false;
            }
            if (n < 0)
                continue;
            c.in.insert(c.in.end(), buf, buf + n);
            for (;;) {
                const size_t avail = c.in.size() - c.inOff;
                if (avail < 4)
                    break;
                const uint32_t len = proto::getU32(c.in.data() + c.inOff);
                if (avail < 4 + size_t(len))
                    break;
                proto::ResponseView rv;
                if (!proto::parseResponse(c.in.data() + c.inOff + 4, len,
                                          &rv)) {
                    t.errors.add("malformed response frame");
                    return false;
                }
                if (c.inflight.empty() || c.inflight.front().id != rv.id) {
                    t.errors.add("response out of order on one connection");
                    return false;
                }
                const Pending p = c.inflight.front();
                c.inflight.pop_front();
                reply(c, p, rv);
                c.inOff += 4 + len;
            }
            if (c.inOff == c.in.size()) {
                c.in.clear();
                c.inOff = 0;
            }
        }
    }
}

/** Fetch one STAT snapshot over connection 0. */
bool
stat(std::vector<Conn> &conns, Tally &t, std::string *json)
{
    bool sent = false;
    return pump(
        conns, 1,
        [&](Conn &c, int i) {
            if (i != 0 || sent)
                return false;
            sent = true;
            queueRequest(c, Op::kStat, 0, "", "", {}, false);
            return true;
        },
        [&](Conn &, const Pending &, const proto::ResponseView &rv) {
            if (rv.status != Status::kOk)
                t.errors.add("STAT failed");
            json->assign(rv.value);
        },
        t);
}

class Client
{
  public:
    Client(const Shape &s, uint64_t seed, bool trace)
        : shape_(s), seed_(seed), trace_(trace),
          model_(s.keysPerConn * kConns), zipf_(s.keysPerConn, 0.99)
    {
    }

    bool
    connectAll(uint16_t port)
    {
        closeAll(conns_);
        conns_.assign(kConns, Conn{});
        for (int i = 0; i < kConns; ++i) {
            conns_[size_t(i)].lane = uint32_t(i + 1);
            if (!connectTo(conns_[size_t(i)], port))
                return false;
        }
        return true;
    }

    /** Insert every key of every slice, twelve PUTs per BATCH. */
    bool
    prefill(Tally &t)
    {
        std::vector<uint64_t> next(kConns);
        for (int i = 0; i < kConns; ++i)
            next[size_t(i)] = base(i);
        std::string v;
        std::vector<std::string> keys(kPrefillBatch), vals(kPrefillBatch);
        return pump(
            conns_, kDepth,
            [&](Conn &c, int i) {
                uint64_t &k = next[size_t(i)];
                const uint64_t end = base(i) + shape_.keysPerConn;
                if (k >= end)
                    return false;
                std::vector<proto::BatchOp> ops;
                for (size_t j = 0; j < kPrefillBatch && k < end; ++j, ++k) {
                    keys[j] = keyOf(k);
                    makeValue(k, 1, kValueBytes, &vals[j]);
                    model_[k] = {1, uint16_t(kValueBytes), true};
                    ops.push_back({Op::kPut, keys[j], vals[j]});
                }
                const std::vector<uint8_t> body = proto::encodeBatch(ops);
                queueRequest(c, Op::kBatch, 0, "",
                     std::string_view(
                         reinterpret_cast<const char *>(body.data()),
                         body.size()),
                     {}, false);
                return true;
            },
            [&](Conn &, const Pending &, const proto::ResponseView &rv) {
                bool ok = rv.status == Status::kOk;
                for (char s : rv.value)
                    ok = ok && Status(uint8_t(s)) == Status::kOk;
                if (!ok)
                    t.errors.add("prefill BATCH failed");
            },
            t);
    }

    /** The timed closed loop; returns false on a transport failure. */
    bool
    timed(double seconds, Tally &t)
    {
        std::vector<Rng> rngs;
        for (int i = 0; i < kConns; ++i)
            rngs.emplace_back(mix64(seed_) + uint64_t(i));
        std::vector<uint64_t> opNo(kConns, 0);
        const uint64_t start = nowNs();
        const uint64_t deadline = start + uint64_t(seconds * 1e9);
        t.slices.start(start, seconds);
        std::string v;
        return pump(
            conns_, kDepth,
            [&](Conn &c, int i) {
                if (nowNs() >= deadline)
                    return false;
                Rng &rng = rngs[size_t(i)];
                const uint64_t op = opNo[size_t(i)]++;
                const bool sampled = trace_ && op % kSampleEvery == 0;
                issue(c, rng, i, sampled, v);
                return true;
            },
            [&](Conn &c, const Pending &p, const proto::ResponseView &rv) {
                account(c, p, rv, t);
            },
            t);
    }

    /** Time the first correct read; with @p all, then read back every
     *  key. */
    bool
    verify(Tally &t, uint64_t *firstReadNs, bool all)
    {
        // The first key the model says is present: a correct answer to
        // it proves the restarted server serves the old image.
        uint64_t probe = 0;
        while (probe < model_.size() && !model_[probe].present)
            ++probe;
        bool probed = false;
        *firstReadNs = 0;
        std::vector<uint64_t> next(kConns);
        for (int i = 0; i < kConns; ++i)
            next[size_t(i)] = base(i);
        auto check = [&](Conn &, const Pending &p,
                         const proto::ResponseView &rv) {
            std::string why = readError(p, rv);
            if (!why.empty())
                t.errors.add("after restart: " + why);
            else if (*firstReadNs == 0)
                *firstReadNs = nowNs();
        };
        if (!pump(
                conns_, 1,
                [&](Conn &c, int i) {
                    if (i != 0 || probed || probe == model_.size())
                        return false;
                    probed = true;
                    const std::string k = keyOf(probe);
                    queueRequest(c, Op::kGet, probe, k, "", model_[probe], false);
                    return true;
                },
                check, t))
            return false;
        return !all || pump(
            conns_, kVerifyDepth,
            [&](Conn &c, int i) {
                uint64_t &k = next[size_t(i)];
                if (k >= base(i) + shape_.keysPerConn)
                    return false;
                const std::string key = keyOf(k);
                queueRequest(c, Op::kGet, k, key, "", model_[k], false);
                ++k;
                return true;
            },
            check, t);
    }

    size_t keys() const { return model_.size(); }
    std::vector<Conn> &conns() { return conns_; }

  private:
    uint64_t base(int conn) const { return uint64_t(conn) * shape_.keysPerConn; }

    void
    issue(Conn &c, Rng &rng, int i, bool sampled, std::string &v)
    {
        const uint64_t r = rng.below(100);
        const uint64_t k =
            base(i) + (shape_.zipf ? zipf_.next(rng)
                                   : rng.below(shape_.keysPerConn));
        KeyState &m = model_[k];
        const std::string key = keyOf(k);
        if (r < shape_.getPct) {
            queueRequest(c, Op::kGet, k, key, "", m, sampled);
            return;
        }
        if (m.present && r < shape_.getPct + shape_.delPct) {
            m = {m.seq + 1, m.len, false};
            queueRequest(c, Op::kDel, k, key, "", m, sampled);
            return;
        }
        size_t len = m.present ? m.len : kValueBytes;
        if (m.present &&
            r < shape_.getPct + shape_.delPct + shape_.resizePct)
            len = len == kValueBytes ? kAltValueBytes : kValueBytes;
        m = {m.seq + 1, uint16_t(len), true};
        makeValue(k, m.seq, len, &v);
        queueRequest(c, Op::kPut, k, key, v, m, sampled);
    }

    /** "" when a GET reply matches what the model said at send time. */
    std::string
    readError(const Pending &p, const proto::ResponseView &rv) const
    {
        if (rv.status != Status::kOk && rv.status != Status::kNotFound)
            return "GET status " + std::to_string(int(rv.status));
        return checkRead(p.expect, p.key, rv.status == Status::kOk,
                         rv.value);
    }

    void
    account(Conn &c, const Pending &p, const proto::ResponseView &rv,
            Tally &t)
    {
        const uint64_t now = nowNs();
        const uint64_t lat = now - p.sentNs;
        ++t.ops;
        t.all.add(lat);
        t.slices.add(p.op == Op::kGet, now, lat);
        if (p.sampled)
            t.spans.push_back({p.op == Op::kGet   ? "GET"
                               : p.op == Op::kPut ? "PUT"
                                                  : "DEL",
                               p.sentNs, now, p.id, c.lane});
        if (p.op == Op::kGet) {
            ++t.reads;
            std::string why = readError(p, rv);
            if (!why.empty()) {
                ++t.failed;
                t.errors.add("GET during run: " + why);
            }
            return;
        }
        ++t.writes;
        if (rv.status != Status::kOk) {
            ++t.failed;
            t.errors.add(std::string(p.op == Op::kPut ? "PUT" : "DEL") +
                    " status " + std::to_string(int(rv.status)));
            return;
        }
        ++t.ackedWrites;
        t.ackBytes += p.bytes;
    }

    Shape shape_;
    uint64_t seed_;
    bool trace_;
    std::vector<KeyState> model_;
    Zipf zipf_;
    std::vector<Conn> conns_;
};

bool
readCommand(std::string *cmd, uint16_t *port)
{
    char line[128];
    if (!std::fgets(line, sizeof(line), stdin))
        return false;
    char word[32];
    unsigned p = 0;
    if (std::sscanf(line, "%31s %u", word, &p) != 2)
        return false;
    *cmd = word;
    *port = uint16_t(p);
    return true;
}

} // namespace

int
runKv(const Args &a)
{
    const Shape *shape = a.workload == "write-zipf"     ? &kWriteZipf
                         : a.workload == "read-uniform" ? &kReadUniform
                                                        : nullptr;
    if (!shape) {
        std::fprintf(stderr, "perfbench_driver: unknown kv workload %s\n",
                     a.workload.c_str());
        return 2;
    }
    Client client(*shape, a.seed, a.trace);
    std::vector<Span> phases;
    Tally setup, run, check;
    std::string cmd;
    uint16_t port = 0;

    // Commands from run.py, one per server launch: prefill, then timed
    // (on a relaunched server, so the server's histograms cover the
    // timed phase only), then probe restarts, and a final verify.
    while (readCommand(&cmd, &port)) {
        const uint64_t t0 = nowNs();
        if (!client.connectAll(port)) {
            std::fprintf(stderr, "perfbench_driver: cannot connect to %u\n",
                         unsigned(port));
            return 1;
        }
        if (cmd == "prefill") {
            if (!client.prefill(setup))
                return 1;
            const uint64_t ready = nowNs();
            phases.push_back({"prefill", t0, ready, 0, 0});
            std::printf("ready %llu\n", (unsigned long long)ready);
        } else if (cmd == "timed") {
            std::string before, after;
            if (!stat(client.conns(), setup, &before))
                return 1;
            const uint64_t timedStart = nowNs();
            if (!client.timed(a.seconds, run))
                return 1;
            const uint64_t timedEnd = nowNs();
            phases.push_back({"timed", timedStart, timedEnd, 0, 0});
            if (!stat(client.conns(), run, &after))
                return 1;
            run.errors.append(setup.errors);
            Json done;
            done.u64("timed_ns", timedEnd - timedStart)
                .u64("ops", run.ops)
                .u64("writes", run.writes)
                .u64("reads", run.reads)
                .u64("acked_writes", run.ackedWrites)
                .u64("ack_bytes", run.ackBytes)
                .u64("failed", run.failed)
                .raw("slices", run.slices.json())
                .num("all_p50_us", run.all.pctUs(0.50))
                .raw("stat_before", before)
                .raw("stat_after", after)
                .raw("errors", run.errors.json());
            std::printf("done %s\n", done.done().c_str());
        } else if (cmd == "probe" || cmd == "verify") {
            // A restart: time the first correct read; "verify" also
            // reads back every key and ends the session.
            const bool all = cmd == "verify";
            uint64_t firstRead = 0;
            if (!client.verify(check, &firstRead, all))
                return 1;
            if (!all) {
                std::printf("probed %llu\n", (unsigned long long)firstRead);
            } else {
                phases.push_back({"verify", t0, nowNs(), 0, 0});
                std::string restarted;
                if (!stat(client.conns(), check, &restarted))
                    return 1;
                std::vector<Span> spans = phases;
                spans.insert(spans.end(), run.spans.begin(),
                             run.spans.end());
                if (a.trace && !a.spans.empty() &&
                    !writeSpans(a.spans, spans, 2))
                    check.errors.add("cannot write " + a.spans);
                Json verified;
                verified.u64("first_read_ns", firstRead)
                    .u64("checked_keys", client.keys())
                    .raw("stat_restart", restarted)
                    .raw("errors", check.errors.json());
                std::printf("verified %s\n", verified.done().c_str());
            }
        } else {
            return 2;
        }
        closeAll(client.conns());
        std::fflush(stdout);
    }
    return 0;
}

} // namespace perfbench
