/**
 * @file
 * KvServer: the networked durable KV service (DESIGN.md §10).
 *
 * Architecture (mcas-style): N IO threads run non-blocking epoll event
 * loops — accepting connections, reading length-prefixed request
 * frames, and flushing response bytes.  Fully-parsed requests are
 * queued per connection; a connection with pending requests is checked
 * out by exactly one of M worker threads at a time (per-connection
 * FIFO, cross-connection parallelism).  Workers map write requests
 * onto relaxed-durability transactions (`Runtime::atomicAsync` via
 * PHashTable::putAsync/delAsync), collect the commit tickets for the
 * batch, and `wait()` once on the newest epoch — epochs retire in
 * order, so that single wait covers every commit in the batch, and
 * because many workers wait on the SAME open epoch, the group-commit
 * combiner amortizes one fence across the whole socket fleet.
 * Acknowledgments are enqueued only after that wait returns: an acked
 * write is durable by construction.
 *
 * Shutdown drains the workers, sync()s, and drains the truncator so a
 * clean stop leaves zero unreplayed log.
 */

#ifndef MNEMOSYNE_SERVER_KV_SERVER_H_
#define MNEMOSYNE_SERVER_KV_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ds/phash_table.h"
#include "runtime/runtime.h"
#include "server/kv_protocol.h"

namespace mnemosyne::server {

struct KvServerConfig {
    /** TCP port to bind on 127.0.0.1; 0 picks an ephemeral port. */
    uint16_t port = 0;

    int io_threads = 1;
    int workers = 4;

    /** Max requests a worker takes from one connection per checkout:
     *  bounds per-connection latency under deep pipelines while still
     *  amortizing one durability wait over the whole batch. */
    size_t worker_batch = 32;

    /** Persistent table backing the service. */
    std::string table = "kv_server_table";
    size_t nbuckets = 1 << 15;
};

class KvServer
{
  public:
    KvServer(Runtime &rt, KvServerConfig cfg = {});
    ~KvServer();

    KvServer(const KvServer &) = delete;
    KvServer &operator=(const KvServer &) = delete;

    /** Bind + spawn IO and worker threads; false on bind failure. */
    bool start();

    /**
     * Graceful stop: stop accepting, let workers drain every queued
     * request, flush pending response bytes, then sync() and drain the
     * truncator so the log is empty on disk (restart replays nothing).
     */
    void stop();

    uint16_t port() const { return port_; }
    uint64_t requestsServed() const
    {
        return served_.load(std::memory_order_relaxed);
    }
    ds::PHashTable &table() { return table_; }

  private:
    struct Request {
        uint64_t id;
        Op op;
        std::string key;
        std::string value;
        uint64_t t0;    ///< arrival timestamp (obs ticks)
    };

    struct Conn {
        int fd = -1;
        int ioThread = 0;
        std::atomic<bool> closed{false};

        // Receive side: owned by the IO thread, no lock needed.
        std::vector<uint8_t> rd;
        size_t rdOff = 0;

        // Parsed-request queue, shared IO thread -> workers.
        std::mutex qmu;
        std::deque<Request> pending;
        bool claimed = false;   ///< one worker owns this conn right now

        // Send side: workers append under wmu; IO thread flushes.
        std::mutex wmu;
        std::vector<uint8_t> wr;
        size_t wrOff = 0;
        bool wantWrite = false; ///< EPOLLOUT armed
    };
    using ConnPtr = std::shared_ptr<Conn>;

    struct IoThread {
        int epfd = -1;
        int wakeFd = -1;        ///< eventfd others kick to hand off work
        std::mutex mu;          ///< guards newConns + flushReq only
        std::vector<ConnPtr> newConns;  ///< accepted, awaiting registration
        std::vector<ConnPtr> flushReq;  ///< conns with fresh response bytes
        std::unordered_map<Conn *, ConnPtr> conns;  ///< owner-thread only
        std::thread thr;
    };

    void ioLoop(IoThread &io);
    void workerLoop();
    void acceptPending();
    void readConn(IoThread &io, const ConnPtr &c);
    void flushConn(IoThread &io, const ConnPtr &c);
    void closeConn(IoThread &io, const ConnPtr &c);
    void enqueueReady(const ConnPtr &c, size_t depth);
    void processConn(const ConnPtr &c, std::vector<Request> &batch);
    void execRequest(const Request &req, std::vector<uint8_t> &out,
                     uint64_t *maxEpoch);
    void execBatchOp(const Request &req, std::vector<uint8_t> &out,
                     uint64_t *maxEpoch);
    void kickIo(const ConnPtr &c);

    Runtime &rt_;
    KvServerConfig cfg_;
    ds::PHashTable table_;

    int listenFd_ = -1;
    uint16_t port_ = 0;
    std::atomic<bool> stopIo_{false};
    std::atomic<bool> stopWorkers_{false};
    std::atomic<bool> accepting_{true};
    std::atomic<uint64_t> served_{0};
    std::atomic<uint64_t> liveConns_{0};
    std::atomic<uint64_t> pendingOut_{0};   ///< unflushed response bytes
    std::atomic<size_t> nextIo_{0};

    std::vector<std::unique_ptr<IoThread>> ios_;

    std::mutex readyMu_;
    std::condition_variable readyCv_;
    std::deque<ConnPtr> ready_;
    std::atomic<int> busyWorkers_{0};
    std::vector<std::thread> workers_;
    bool started_ = false;
};

} // namespace mnemosyne::server

#endif // MNEMOSYNE_SERVER_KV_SERVER_H_
