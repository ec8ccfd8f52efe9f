#include "server/kv_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <new>

#include "obs/obs.h"
#include "obs/stats_registry.h"

namespace mnemosyne::server {

namespace {

struct ServerObs {
    obs::Counter accepts{"server.accepts"};
    obs::Counter conns_closed{"server.conns_closed"};
    obs::Counter requests{"server.requests"};
    obs::Counter gets{"server.gets"};
    obs::Counter puts{"server.puts"};
    obs::Counter dels{"server.dels"};
    obs::Counter batches{"server.batches"};
    obs::Counter errors{"server.errors"};
    obs::Counter bytes_in{"server.bytes_in"};
    obs::Counter bytes_out{"server.bytes_out"};
    obs::HdrHistogram request_ns{"server.request_ns"};
    obs::HdrHistogram wait_ns{"server.wait_ns"};
    obs::HdrHistogram queue_depth{"server.queue_depth"};
    obs::HdrHistogram worker_batch{"server.worker_batch"};
};

ServerObs &
sobs()
{
    static ServerObs o;
    return o;
}

constexpr uint64_t kListenTag = 1;
constexpr uint64_t kWakeTag = 2;

} // namespace

KvServer::KvServer(Runtime &rt, KvServerConfig cfg)
    : rt_(rt), cfg_(cfg), table_(rt, cfg_.table, cfg_.nbuckets)
{
    if (cfg_.io_threads < 1)
        cfg_.io_threads = 1;
    if (cfg_.workers < 1)
        cfg_.workers = 1;
    // The runtime supports 64 staging/obs thread ordinals per process;
    // leave room for the main thread, IO threads, and the emitter.
    if (cfg_.workers > 32)
        cfg_.workers = 32;
    if (cfg_.worker_batch < 1)
        cfg_.worker_batch = 1;
}

KvServer::~KvServer() { stop(); }

bool
KvServer::start()
{
    listenFd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0)
        return false;
    int one = 1;
    setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(cfg_.port);
    if (bind(listenFd_, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) <
            0 ||
        listen(listenFd_, 1024) < 0) {
        close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    socklen_t alen = sizeof(addr);
    getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr), &alen);
    port_ = ntohs(addr.sin_port);

    stopIo_ = false;
    stopWorkers_ = false;
    accepting_ = true;

    for (int i = 0; i < cfg_.io_threads; ++i) {
        auto io = std::make_unique<IoThread>();
        io->epfd = epoll_create1(EPOLL_CLOEXEC);
        io->wakeFd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = kWakeTag;
        epoll_ctl(io->epfd, EPOLL_CTL_ADD, io->wakeFd, &ev);
        if (i == 0) {
            // IO thread 0 owns the listener; accepted fds are handed to
            // the other loops round-robin via their wake queues.
            epoll_event lev{};
            lev.events = EPOLLIN;
            lev.data.u64 = kListenTag;
            epoll_ctl(io->epfd, EPOLL_CTL_ADD, listenFd_, &lev);
        }
        ios_.push_back(std::move(io));
    }
    for (auto &io : ios_)
        io->thr = std::thread([this, &io] { ioLoop(*io); });
    for (int i = 0; i < cfg_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    started_ = true;
    return true;
}

void
KvServer::stop()
{
    if (!started_)
        return;
    using namespace std::chrono;

    // 1. Stop accepting; existing connections keep draining.
    accepting_ = false;

    // 2. Wait (bounded) for the workers to drain every queued request.
    auto deadline = steady_clock::now() + seconds(10);
    while (steady_clock::now() < deadline) {
        bool idle;
        {
            std::lock_guard<std::mutex> lk(readyMu_);
            idle = ready_.empty() &&
                   busyWorkers_.load(std::memory_order_acquire) == 0;
        }
        if (idle)
            break;
        std::this_thread::sleep_for(milliseconds(2));
    }
    stopWorkers_ = true;
    readyCv_.notify_all();
    for (auto &w : workers_)
        w.join();
    workers_.clear();

    // 3. Let the IO threads flush any remaining acked response bytes.
    deadline = steady_clock::now() + seconds(2);
    while (pendingOut_.load(std::memory_order_acquire) != 0 &&
           steady_clock::now() < deadline)
        std::this_thread::sleep_for(milliseconds(2));

    stopIo_ = true;
    for (auto &io : ios_) {
        uint64_t one = 1;
        [[maybe_unused]] ssize_t n = write(io->wakeFd, &one, sizeof(one));
    }
    for (auto &io : ios_)
        io->thr.join();
    ios_.clear();

    if (listenFd_ >= 0) {
        close(listenFd_);
        listenFd_ = -1;
    }
    {
        std::lock_guard<std::mutex> lk(readyMu_);
        ready_.clear();
    }

    // 4. Durability epilogue: everything acked is already durable, but a
    //    clean stop must ALSO leave the log empty — retire open epochs
    //    and drain the truncator so restart replays zero transactions.
    rt_.sync();
    rt_.txns().drainTruncation();
    started_ = false;
}

void
KvServer::acceptPending()
{
    while (accepting_.load(std::memory_order_acquire)) {
        int fd = accept4(listenFd_, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0)
            break;  // EAGAIN, or transient (EMFILE sheds load)
        int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto c = std::make_shared<Conn>();
        c->fd = fd;
        c->ioThread =
            int(nextIo_.fetch_add(1, std::memory_order_relaxed) % ios_.size());
        sobs().accepts.add(1);
        liveConns_.fetch_add(1, std::memory_order_relaxed);
        IoThread &io = *ios_[size_t(c->ioThread)];
        {
            std::lock_guard<std::mutex> lk(io.mu);
            io.newConns.push_back(std::move(c));
        }
        uint64_t tick = 1;
        [[maybe_unused]] ssize_t n = write(io.wakeFd, &tick, sizeof(tick));
    }
}

void
KvServer::ioLoop(IoThread &io)
{
    epoll_event evs[128];
    while (!stopIo_.load(std::memory_order_acquire)) {
        int n = epoll_wait(io.epfd, evs, 128, 100);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        for (int i = 0; i < n; ++i) {
            if (evs[i].data.u64 == kWakeTag) {
                uint64_t drain;
                while (read(io.wakeFd, &drain, sizeof(drain)) > 0) {
                }
                std::vector<ConnPtr> fresh, flush;
                {
                    std::lock_guard<std::mutex> lk(io.mu);
                    fresh.swap(io.newConns);
                    flush.swap(io.flushReq);
                }
                for (ConnPtr &c : fresh) {
                    epoll_event ev{};
                    ev.events = EPOLLIN;
                    ev.data.ptr = c.get();
                    epoll_ctl(io.epfd, EPOLL_CTL_ADD, c->fd, &ev);
                    io.conns[c.get()] = std::move(c);
                }
                for (ConnPtr &c : flush)
                    flushConn(io, c);
            } else if (evs[i].data.u64 == kListenTag) {
                acceptPending();
            } else {
                Conn *raw = static_cast<Conn *>(evs[i].data.ptr);
                auto it = io.conns.find(raw);
                if (it == io.conns.end())
                    continue;
                ConnPtr c = it->second;
                if (evs[i].events & (EPOLLHUP | EPOLLERR)) {
                    closeConn(io, c);
                    continue;
                }
                if (evs[i].events & EPOLLOUT)
                    flushConn(io, c);
                if (evs[i].events & EPOLLIN)
                    readConn(io, c);
            }
        }
    }
    // Loop exit: close every connection this thread owns.
    for (auto &kv : io.conns) {
        const ConnPtr &c = kv.second;
        std::lock_guard<std::mutex> lk(c->wmu);
        if (!c->closed.exchange(true)) {
            pendingOut_.fetch_sub(c->wr.size() - c->wrOff,
                                  std::memory_order_relaxed);
            close(c->fd);
        }
    }
    io.conns.clear();
    close(io.epfd);
    close(io.wakeFd);
}

void
KvServer::closeConn(IoThread &io, const ConnPtr &c)
{
    {
        std::lock_guard<std::mutex> lk(c->wmu);
        if (c->closed.exchange(true))
            return;
        pendingOut_.fetch_sub(c->wr.size() - c->wrOff,
                              std::memory_order_relaxed);
        c->wr.clear();
        c->wrOff = 0;
    }
    epoll_ctl(io.epfd, EPOLL_CTL_DEL, c->fd, nullptr);
    close(c->fd);
    io.conns.erase(c.get());
    sobs().conns_closed.add(1);
    liveConns_.fetch_sub(1, std::memory_order_relaxed);
}

void
KvServer::readConn(IoThread &io, const ConnPtr &c)
{
    bool eof = false;
    for (;;) {
        uint8_t chunk[64 * 1024];
        ssize_t n = read(c->fd, chunk, sizeof(chunk));
        if (n > 0) {
            c->rd.insert(c->rd.end(), chunk, chunk + n);
            sobs().bytes_in.add(uint64_t(n));
            continue;
        }
        if (n == 0) {
            eof = true;
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        eof = true;
        break;
    }

    // Extract complete frames.
    std::vector<Request> parsed;
    const uint64_t now = obs::tickNow();
    for (;;) {
        const size_t avail = c->rd.size() - c->rdOff;
        if (avail < 4)
            break;
        const uint32_t len = getU32(c->rd.data() + c->rdOff);
        if (len > kMaxFrameBytes || len < kRequestHeaderBytes) {
            eof = true;  // protocol error: drop the connection
            break;
        }
        if (avail < 4 + size_t(len))
            break;
        RequestView v;
        if (!parseRequest(c->rd.data() + c->rdOff + 4, len, &v)) {
            eof = true;
            break;
        }
        parsed.push_back(Request{v.id, v.op, std::string(v.key),
                                 std::string(v.value), now});
        c->rdOff += 4 + size_t(len);
    }
    if (c->rdOff == c->rd.size()) {
        c->rd.clear();
        c->rdOff = 0;
    } else if (c->rdOff > (64u << 10)) {
        c->rd.erase(c->rd.begin(), c->rd.begin() + ptrdiff_t(c->rdOff));
        c->rdOff = 0;
    }

    if (!parsed.empty()) {
        size_t depth = 0;
        bool enqueue = false;
        {
            std::lock_guard<std::mutex> lk(c->qmu);
            for (Request &r : parsed)
                c->pending.push_back(std::move(r));
            depth = c->pending.size();
            if (!c->claimed) {
                c->claimed = true;
                enqueue = true;
            }
        }
        sobs().queue_depth.record(depth);
        if (enqueue) {
            {
                std::lock_guard<std::mutex> lk(readyMu_);
                ready_.push_back(c);
            }
            readyCv_.notify_one();
        }
    }

    if (eof)
        closeConn(io, c);
}

void
KvServer::flushConn(IoThread &io, const ConnPtr &c)
{
    bool dead = false;
    bool partial = false;
    {
        std::lock_guard<std::mutex> lk(c->wmu);
        if (c->closed.load(std::memory_order_relaxed))
            return;
        while (c->wrOff < c->wr.size()) {
            ssize_t n = write(c->fd, c->wr.data() + c->wrOff,
                              c->wr.size() - c->wrOff);
            if (n > 0) {
                c->wrOff += size_t(n);
                sobs().bytes_out.add(uint64_t(n));
                pendingOut_.fetch_sub(uint64_t(n), std::memory_order_relaxed);
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                partial = true;
                break;
            }
            if (n < 0 && errno == EINTR)
                continue;
            dead = true;
            break;
        }
        if (c->wrOff == c->wr.size()) {
            c->wr.clear();
            c->wrOff = 0;
        }
        if (!dead && partial != c->wantWrite) {
            epoll_event ev{};
            ev.events = EPOLLIN | (partial ? EPOLLOUT : 0);
            ev.data.ptr = c.get();
            epoll_ctl(io.epfd, EPOLL_CTL_MOD, c->fd, &ev);
            c->wantWrite = partial;
        }
    }
    if (dead)
        closeConn(io, c);
}

void
KvServer::kickIo(const ConnPtr &c)
{
    IoThread &io = *ios_[size_t(c->ioThread)];
    {
        std::lock_guard<std::mutex> lk(io.mu);
        io.flushReq.push_back(c);
    }
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(io.wakeFd, &one, sizeof(one));
}

void
KvServer::workerLoop()
{
    std::vector<Request> batch;
    for (;;) {
        ConnPtr c;
        {
            std::unique_lock<std::mutex> lk(readyMu_);
            readyCv_.wait(lk, [&] {
                return stopWorkers_.load(std::memory_order_acquire) ||
                       !ready_.empty();
            });
            if (ready_.empty()) {
                if (stopWorkers_.load(std::memory_order_acquire))
                    break;
                continue;
            }
            c = std::move(ready_.front());
            ready_.pop_front();
            busyWorkers_.fetch_add(1, std::memory_order_acq_rel);
        }

        batch.clear();
        {
            std::lock_guard<std::mutex> lk(c->qmu);
            while (!c->pending.empty() && batch.size() < cfg_.worker_batch) {
                batch.push_back(std::move(c->pending.front()));
                c->pending.pop_front();
            }
        }
        sobs().worker_batch.record(batch.size());
        processConn(c, batch);

        bool requeue = false;
        {
            std::lock_guard<std::mutex> lk(c->qmu);
            if (c->pending.empty())
                c->claimed = false;
            else
                requeue = true;
        }
        if (requeue) {
            {
                std::lock_guard<std::mutex> lk(readyMu_);
                ready_.push_back(std::move(c));
            }
            readyCv_.notify_one();
        }
        busyWorkers_.fetch_sub(1, std::memory_order_acq_rel);
    }
    // Retire this thread's last staged async commit and reap its graves
    // before the thread disappears (slots are per-thread-ordinal).
    rt_.syncThreadStaging();
}

void
KvServer::processConn(const ConnPtr &c, std::vector<Request> &batch)
{
    std::vector<uint8_t> out;
    uint64_t maxEpoch = 0;

    for (const Request &req : batch) {
        sobs().requests.add(1);
        // A full persistent heap fails the one request, not the server:
        // atomicAsync has already rolled the transaction back (a BATCH
        // fails whole), so answer kError and keep serving.
        try {
            execRequest(req, out, &maxEpoch);
        } catch (const std::bad_alloc &) {
            sobs().errors.add(1);
            appendResponse(out, req.id, Status::kError, req.op, "");
        }
    }

    // ONE durability wait covers the whole batch: epochs retire in
    // order, so waiting on the newest epoch implies all earlier ones.
    // Many workers wait on the same open epoch — that is the
    // cross-connection fence amortization this server exists for.
    if (maxEpoch != 0) {
        const uint64_t t0 = obs::tickNow();
        rt_.wait(mtm::CommitTicket{maxEpoch});
        sobs().wait_ns.record(obs::ticksToNs(obs::tickNow() - t0));
    }

    const uint64_t done = obs::tickNow();
    for (const Request &req : batch)
        sobs().request_ns.record(obs::ticksToNs(done - req.t0));

    if (!out.empty()) {
        bool send = false;
        {
            std::lock_guard<std::mutex> lk(c->wmu);
            if (!c->closed.load(std::memory_order_relaxed)) {
                c->wr.insert(c->wr.end(), out.begin(), out.end());
                pendingOut_.fetch_add(out.size(), std::memory_order_relaxed);
                send = true;
            }
        }
        if (send)
            kickIo(c);
    }
    served_.fetch_add(batch.size(), std::memory_order_relaxed);
}

void
KvServer::execRequest(const Request &req, std::vector<uint8_t> &out,
                      uint64_t *maxEpoch)
{
    if (req.key.size() > kMaxKeyBytes) {
        sobs().errors.add(1);
        appendResponse(out, req.id, Status::kTooLarge, req.op, "");
        return;
    }
    switch (req.op) {
    case Op::kGet: {
        sobs().gets.add(1);
        std::string v;
        const bool found = table_.get(req.key, &v);
        appendResponse(out, req.id,
                       found ? Status::kOk : Status::kNotFound, Op::kGet,
                       found ? std::string_view(v) : std::string_view());
        break;
    }
    case Op::kPut: {
        sobs().puts.add(1);
        mtm::CommitTicket t = table_.putAsync(req.key, req.value);
        if (t.epoch > *maxEpoch)
            *maxEpoch = t.epoch;
        appendResponse(out, req.id, Status::kOk, Op::kPut, "");
        break;
    }
    case Op::kDel: {
        sobs().dels.add(1);
        bool removed = false;
        mtm::CommitTicket t = table_.delAsync(req.key, &removed);
        if (t.epoch > *maxEpoch)
            *maxEpoch = t.epoch;
        appendResponse(out, req.id,
                       removed ? Status::kOk : Status::kNotFound,
                       Op::kDel, "");
        break;
    }
    case Op::kBatch:
        execBatchOp(req, out, maxEpoch);
        break;
    case Op::kStat: {
        const std::string snap =
            obs::StatsRegistry::instance().jsonSnapshot();
        appendResponse(out, req.id, Status::kOk, Op::kStat, snap);
        break;
    }
    case Op::kPing:
        appendResponse(out, req.id, Status::kOk, Op::kPing, "");
        break;
    default:
        sobs().errors.add(1);
        appendResponse(out, req.id, Status::kBadRequest, req.op, "");
        break;
    }
}

void
KvServer::execBatchOp(const Request &req, std::vector<uint8_t> &out,
                      uint64_t *maxEpoch)
{
    std::vector<BatchOp> ops;
    if (!decodeBatch(req.value, &ops)) {
        sobs().errors.add(1);
        appendResponse(out, req.id, Status::kBadRequest, Op::kBatch, "");
        return;
    }
    if (ops.size() > kMaxBatchOps) {
        sobs().errors.add(1);
        appendResponse(out, req.id, Status::kTooLarge, Op::kBatch, "");
        return;
    }
    for (const BatchOp &o : ops) {
        if ((o.op != Op::kPut && o.op != Op::kDel) ||
            o.key.size() > kMaxKeyBytes) {
            sobs().errors.add(1);
            appendResponse(out, req.id, Status::kBadRequest, Op::kBatch, "");
            return;
        }
    }
    sobs().batches.add(1);

    // All ops in ONE durable transaction: atomic across the batch, one
    // log record, one epoch join.  The caller-side staging protocol
    // (see PHashTable::putTx) brackets the transaction.
    std::string statuses(ops.size(), char(Status::kOk));
    rt_.syncThreadStaging();
    mtm::CommitTicket t = rt_.atomicAsync([&](mtm::Txn &tx) {
        rt_.resetStaging();
        for (size_t i = 0; i < ops.size(); ++i) {
            if (ops[i].op == Op::kPut) {
                table_.putTx(tx, ops[i].key, ops[i].value);
                statuses[i] = char(Status::kOk);
            } else {
                statuses[i] = table_.delTx(tx, ops[i].key)
                                  ? char(Status::kOk)
                                  : char(Status::kNotFound);
            }
        }
        rt_.clearAllocStaging(tx);
    });
    rt_.noteStagedAsync(t);
    if (t.epoch > *maxEpoch)
        *maxEpoch = t.epoch;
    appendResponse(out, req.id, Status::kOk, Op::kBatch, statuses);
}

} // namespace mnemosyne::server
