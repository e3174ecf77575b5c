#include "lynx/runtime.hpp"

#include <algorithm>

#include "trace/trace.hpp"

namespace lynx {

// ===================== Process =====================

Process::Process(sim::Engine& engine, std::string name,
                 std::unique_ptr<Backend> backend, RuntimeCosts costs)
    : engine_(&engine),
      name_(std::move(name)),
      backend_(std::move(backend)),
      costs_(costs),
      receive_waiters_(std::make_unique<sim::WaitList>(engine)),
      counts_(engine.counts(backend_->trace_node())) {}

Process::~Process() = default;

Process::LinkState* Process::find_link(LinkHandle h) {
  auto it = links_.find(h);
  return it == links_.end() ? nullptr : &it->second;
}

Process::LinkState& Process::require_link(LinkHandle h) {
  LinkState* ls = find_link(h);
  if (ls == nullptr) {
    throw LynxError(ErrorKind::kInvalidLink, "no such link end");
  }
  return *ls;
}

LinkHandle Process::adopt_link(BLink blink) {
  const LinkHandle h = link_ids_.next();
  LinkState ls;
  ls.handle = h;
  ls.blink = blink;
  ls.call_serializer = std::make_unique<sim::WaitList>(*engine_);
  links_.emplace(h, std::move(ls));
  by_blink_.emplace(blink, h);
  fair_order_.push_back(h);
  return h;
}

void Process::drop_link(LinkHandle h) {
  auto it = links_.find(h);
  if (it == links_.end()) return;
  by_blink_.erase(it->second.blink);
  links_.erase(it);
  std::erase(fair_order_, h);
}

void Process::refresh_interest(LinkState& ls) {
  if (ls.destroyed) return;
  backend_->set_interest(ls.blink, ls.open_requests,
                         ls.active_call != nullptr);
}

ThreadId Process::spawn_thread(std::string thread_name, ThreadBody body) {
  const ThreadId tid = thread_ids_.next();
  ThreadState ts;
  ts.id = tid;
  ts.name = std::move(thread_name);
  threads_.emplace(tid, std::move(ts));
  threads_.at(tid).ctx = std::make_unique<ThreadCtx>(*this, tid);
  if (started_) {
    launch(tid, std::move(body));
  } else {
    pending_threads_.emplace_back(tid, std::move(body));
  }
  return tid;
}

void Process::launch(ThreadId tid, ThreadBody body) {
  ++live_threads_;
  engine_->spawn(name_ + "/" + threads_.at(tid).name,
                 run_thread_body(tid, std::move(body)));
}

void Process::start() {
  RELYNX_ASSERT_MSG(!started_, "Process started twice");
  started_ = true;
  backend_->start([this](BackendEvent ev) { on_backend_event(std::move(ev)); });
  for (auto& [tid, body] : pending_threads_) launch(tid, std::move(body));
  pending_threads_.clear();
}

sim::Task<> Process::run_thread_body(ThreadId tid, ThreadBody body) {
  ThreadState& ts = threads_.at(tid);
  try {
    co_await body(*ts.ctx);
  } catch (const LynxError& e) {
    thread_failures_.push_back(name_ + "/" + threads_.at(tid).name + ": " +
                               e.what());
  }
  --live_threads_;
  if (live_threads_ == 0 && !terminated_) {
    // "Before terminating, each process destroys all of its links."
    terminate();
  }
}

void Process::abort_thread(ThreadId tid) {
  auto it = threads_.find(tid);
  if (it == threads_.end()) return;
  ThreadState& ts = it->second;
  ts.abort_requested = true;
  if (ts.current_send != 0) {
    if (backend_->awaited(ts.current_send)) {
      backend_->cancel_send(ts.current_send);
    }
    return;
  }
  if (ts.awaiting_reply_on.valid()) {
    if (LinkState* ls = find_link(ts.awaiting_reply_on);
        ls != nullptr && ls->active_call != nullptr) {
      // A reply already on the wire will arrive unwanted; remember to
      // drop it rather than misdeliver it to the next call.
      ++ls->stale_replies_expected;
      backend_->retract_reply_interest(ls->blink);
      fail_call(*ls->active_call, ErrorKind::kAborted);
    }
    return;
  }
  // Blocked in receive (or about to block): wake everyone; the aborted
  // thread sees abort_requested and throws.
  receive_waiters_->wake_all();
}

void Process::terminate() {
  if (terminated_) return;
  terminated_ = true;
  for (auto& [h, ls] : links_) mark_dead(ls);
  backend_->shutdown();
  receive_waiters_->wake_all();
}

void Process::on_backend_event(BackendEvent ev) {
  auto bit = by_blink_.find(ev.link);
  if (bit == by_blink_.end()) return;  // stale event for a dropped end
  LinkState& ls = links_.at(bit->second);

  switch (ev.kind) {
    case BackendEvent::Kind::kRequestArrived:
    case BackendEvent::Kind::kReplyArrived: {
      std::vector<LinkHandle> handles;
      handles.reserve(ev.enclosures.size());
      for (BLink e : ev.enclosures) handles.push_back(adopt_link(e));
      Delivered d{deserialize(ev.body, handles), ev.body.size(), ev.trace};

      if (ev.kind == BackendEvent::Kind::kRequestArrived) {
        if (!declared_ops_.empty() && !declared_ops_.contains(d.msg.op)) {
          // Screening surface for the conformance checker: the request
          // never reaches receive(); the caller will feel
          // kOperationRejected instead of a served reply.
          if (auto* rec = trace::get(*engine_)) {
            rec->instant(backend_->trace_node(), "runtime", "req.reject",
                         ev.trace);
          }
          // Reject: return a %reject reply carrying the enclosures back.
          Message reject;
          reject.op = "%reject";
          for (LinkHandle h : handles) reject.args.emplace_back(h);
          Serialized ser = marshal(reject);
          std::vector<BLink> blinks =
              check_and_stage_enclosures(ls.handle, ser.enclosures);
          auto done = std::make_unique<sim::OneShot<SendOutcome>>(*engine_);
          begin_send(ls.blink,
                     WireMessage{MsgKind::kReply, std::move(ser.body),
                                 std::move(blinks), ev.trace},
                     *done);
          // fire and forget; drop the moved-back ends
          engine_->spawn(
              name_ + "/reject",
              [](Process* p, std::unique_ptr<sim::OneShot<SendOutcome>> sent,
                 std::vector<LinkHandle> hs) -> sim::Task<> {
                (void)co_await sent->take();
                for (LinkHandle h : hs) p->drop_link(h);
              }(this, std::move(done), handles));
          return;
        }
        ls.request_q.push_back(std::move(d));
        receive_waiters_->wake_all();
        return;
      }

      // Reply path.
      if (ls.stale_replies_expected > 0) {
        // Aborted caller: on Charlotte this reply arrives anyway and is
        // silently discarded (the paper's documented deviation); the
        // enclosures it carried are lost with it.
        --ls.stale_replies_expected;
        for (LinkHandle h : handles) drop_link(h);
        return;
      }
      if (ls.active_call != nullptr) {
        CallRecord* rec = ls.active_call;
        rec->reply = std::move(d);
        rec->wake->fulfill(0);
        return;
      }
      ls.reply_q.push_back(std::move(d));
      return;
    }

    case BackendEvent::Kind::kLinkDestroyed: {
      // Death notice surface: a later kLinkDestroyed rpc.error on this
      // process is explained by this instant (a = backend link token).
      if (auto* rec = trace::get(*engine_)) {
        rec->instant(backend_->trace_node(), "runtime", "link.dead",
                     ev.trace, ev.link.value());
      }
      mark_dead(ls);
      receive_waiters_->wake_all();
      return;
    }
  }
}

void Process::mark_dead(LinkState& ls) {
  ls.destroyed = true;
  if (ls.active_call != nullptr) {
    fail_call(*ls.active_call, ErrorKind::kLinkDestroyed);
    ls.active_call = nullptr;
  }
}

void Process::fail_call(CallRecord& call, ErrorKind error) {
  call.failed = true;
  call.error = error;
  call.wake->fulfill(0);
}

Serialized Process::marshal(const Message& m) const {
  return serialize(m, backend_->header_bytes(m.count_links()));
}

sim::Duration Process::marshal_cost(std::size_t bytes) const {
  return costs_.per_operation +
         costs_.per_byte * static_cast<sim::Duration>(bytes);
}

std::uint64_t Process::begin_send(BLink blink, WireMessage msg,
                                  sim::OneShot<SendOutcome>& done) {
  const std::uint64_t id = next_send_++;
  backend_->await_send(id, done);
  backend_->begin_send(blink, std::move(msg), id);
  return id;
}

void Process::start_send(ThreadState& ts, LinkState& ls, WireMessage msg,
                         sim::OneShot<SendOutcome>& done) {
  ts.current_send = begin_send(ls.blink, std::move(msg), done);
  ++ls.sends_in_flight;
}

Process::LinkState* Process::finish_send(ThreadState& ts, LinkHandle link) {
  ts.current_send = 0;
  LinkState* ls = find_link(link);
  if (ls != nullptr) --ls->sends_in_flight;
  return ls;
}

std::vector<BLink> Process::check_and_stage_enclosures(
    LinkHandle carrier, const std::vector<LinkHandle>& handles) {
  std::vector<BLink> blinks;
  blinks.reserve(handles.size());
  for (LinkHandle h : handles) {
    if (h == carrier) {
      throw LynxError(ErrorKind::kLinkBusy, "cannot enclose carrier end");
    }
    LinkState* enc = find_link(h);
    if (enc == nullptr) {
      throw LynxError(ErrorKind::kInvalidLink, "enclosure not owned");
    }
    if (enc->destroyed) {
      throw LynxError(ErrorKind::kLinkDestroyed, "enclosure destroyed");
    }
    // §2.1: may not move an end with unreceived sent messages or owed
    // replies; we also refuse while local queues hold undelivered
    // messages or a call is outstanding.
    if (enc->owed_replies > 0 || enc->sends_in_flight > 0 ||
        enc->active_call != nullptr || !enc->request_q.empty() ||
        !enc->reply_q.empty()) {
      throw LynxError(ErrorKind::kLinkBusy, "enclosure has traffic");
    }
    blinks.push_back(enc->blink);
  }
  return blinks;
}

// ===================== ThreadCtx =====================

void ThreadCtx::set_trace_context(std::uint64_t t) {
  proc_->threads_.at(id_).trace_ctx = t;
}

void ThreadCtx::fail(std::uint64_t trace_id, ErrorKind kind,
                     const std::string& detail) {
  // Conformance-visible error surface: every LynxError a thread can feel
  // is announced as an "rpc.error" instant (a = ErrorKind) on the runtime
  // track before it is thrown, so the reference model (src/check/) can
  // judge whether the error was legal in the scenario being explored.
  if (auto* rec = trace::get(engine())) {
    rec->instant(proc_->backend_->trace_node(), "runtime", "rpc.error",
                 trace_id, static_cast<std::uint64_t>(kind));
  }
  throw LynxError(kind, detail);
}

void ThreadCtx::check_abort() {
  auto& ts = proc_->threads_.at(id_);
  if (ts.abort_requested) {
    ts.abort_requested = false;
    fail(0, ErrorKind::kAborted, "thread aborted");
  }
}

void ThreadCtx::check_fits(const Serialized& ser, std::uint64_t trace_id) {
  const Backend& b = *proc_->backend_;
  const std::size_t packet =
      b.header_bytes(ser.enclosures.size()) + ser.body.size();
  if (packet > b.max_packet_bytes()) {
    fail(trace_id, ErrorKind::kMessageTooLarge,
         std::to_string(packet) + " B packet exceeds the buffer");
  }
}

sim::Task<void> ThreadCtx::delay(sim::Duration d) {
  check_abort();
  co_await engine().sleep(d);
  check_abort();
}

sim::Task<LocalLinkPair> ThreadCtx::new_link() {
  check_abort();
  co_await engine().sleep(proc_->costs_.per_operation);
  auto [b1, b2] = co_await proc_->backend_->make_link();
  co_return LocalLinkPair{proc_->adopt_link(b1), proc_->adopt_link(b2)};
}

sim::Task<void> ThreadCtx::destroy(LinkHandle link) {
  check_abort();
  (void)proc_->require_link(link);
  co_await engine().sleep(proc_->costs_.per_operation);
  // Re-found after each suspension: another thread may drop it meanwhile.
  Process::LinkState* ls = proc_->find_link(link);
  if (ls != nullptr && !ls->destroyed) {
    co_await proc_->backend_->destroy(ls->blink);
    ls = proc_->find_link(link);
  }
  if (ls == nullptr) co_return;
  // A local destroy releases every caller: the one awaiting its reply
  // and each one queued behind it feel link-destroyed.
  proc_->mark_dead(*ls);
  ls->call_serializer->wake_all();
  proc_->drop_link(link);
}

void ThreadCtx::enable_requests(LinkHandle link) {
  Process::LinkState& ls = proc_->require_link(link);
  if (ls.destroyed) {
    throw LynxError(ErrorKind::kLinkDestroyed, "enable on destroyed link");
  }
  ls.open_requests = true;
  proc_->refresh_interest(ls);
}

void ThreadCtx::disable_requests(LinkHandle link) {
  Process::LinkState& ls = proc_->require_link(link);
  ls.open_requests = false;
  if (!ls.destroyed) proc_->refresh_interest(ls);
}

sim::Task<Message> ThreadCtx::call(LinkHandle link, Message request) {
  check_abort();
  Process& p = *proc_;
  trace::Recorder* rec = trace::get(engine());
  const std::uint32_t tnode = p.backend_->trace_node();
  {
    Process::LinkState& ls = p.require_link(link);
    if (ls.destroyed) {
      fail(0, ErrorKind::kLinkDestroyed, "call on destroyed link");
    }
    // One outstanding call per link: later callers queue (their sends
    // would violate stop-and-wait anyway).  The claim is taken
    // synchronously, BEFORE the gather sleep, so concurrent callers
    // cannot slip past the check while this one is still marshalling.
    while (true) {
      Process::LinkState* cur = p.find_link(link);
      if (cur == nullptr || cur->destroyed) {
        // Pass the death on: the next queued caller feels it too.
        if (cur != nullptr) cur->call_serializer->wake_one();
        fail(0, ErrorKind::kLinkDestroyed, "link vanished");
      }
      if (!cur->call_claimed && cur->active_call == nullptr &&
          cur->sends_in_flight == 0) {
        cur->call_claimed = true;
        break;
      }
      co_await cur->call_serializer->wait();
      check_abort();
    }
  }

  // Causal identity: join the thread's context chain if one is set,
  // otherwise start a fresh trace for this operation.  The id rides in
  // the WireMessage and comes back with the reply, so every kernel frame
  // and fault event in between is attributable to this call.
  std::uint64_t call_trace = p.threads_.at(id_).trace_ctx;
  if (rec != nullptr && call_trace == 0) call_trace = rec->new_trace();
  trace::SpanScope call_span(rec, tnode, "runtime", "call", call_trace);

  // gather + type bookkeeping
  trace::SpanScope gather_span(rec, tnode, "runtime", "call.gather",
                               call_trace);
  Serialized ser = p.marshal(request);
  co_await engine().sleep(p.marshal_cost(ser.body.size()));
  gather_span.end();

  struct ClaimGuard {
    Process* p;
    LinkHandle link;
    bool armed = true;
    void release() {
      if (!armed) return;
      armed = false;
      if (auto* cur = p->find_link(link)) {
        cur->call_claimed = false;
        cur->call_serializer->wake_one();
      }
    }
    ~ClaimGuard() { release(); }
  } claim{&p, link};
  // An abort that landed during the gather sleep: nothing was sent yet.
  check_abort();
  check_fits(ser, call_trace);

  Process::LinkState& ls = p.require_link(link);
  std::vector<BLink> blinks =
      p.check_and_stage_enclosures(link, ser.enclosures);

  // "A now expects a reply on L and starts a receive activity": the
  // reply queue opens when the request is SENT (paper §2.1/§3.2.1),
  // which is exactly what makes unwanted deliveries possible on
  // Charlotte.
  p.backend_->set_interest(ls.blink, ls.open_requests, true);
  trace::SpanScope send_span(rec, tnode, "runtime", "call.send", call_trace,
                             ser.body.size());
  auto& ts = p.threads_.at(id_);
  sim::OneShot<SendOutcome> sent(engine());
  p.start_send(ts, ls,
               WireMessage{MsgKind::kRequest, std::move(ser.body),
                           std::move(blinks), call_trace},
               sent);
  SendOutcome out = co_await sent.take();
  p.finish_send(ts, link);
  send_span.end();

  switch (out.result) {
    case SendResult::kDelivered:
      for (LinkHandle h : ser.enclosures) p.drop_link(h);
      break;
    case SendResult::kCancelled: {
      // Enclosures come back unless the backend lost them (Charlotte).
      for (BLink lost : out.lost_enclosures) {
        if (auto it = p.by_blink_.find(lost); it != p.by_blink_.end()) {
          p.drop_link(it->second);
        }
      }
      if (auto* cur = p.find_link(link)) p.refresh_interest(*cur);
      ts.abort_requested = false;
      fail(call_trace, ErrorKind::kAborted, "request aborted in flight");
    }
    case SendResult::kLinkDestroyed: {
      auto* cur = p.find_link(link);
      if (cur != nullptr) p.mark_dead(*cur);
      // A reply already queued for this call proves the request WAS
      // delivered: the peer answered it and only the delivery ack (or
      // the link itself, afterwards) was lost.  Hand the caller its
      // reply; the destroyed link bites on the NEXT use.
      if (cur == nullptr || cur->reply_q.empty()) {
        fail(call_trace, ErrorKind::kLinkDestroyed, "request undeliverable");
      }
      break;
    }
    case SendResult::kReplyUnwanted:
      RELYNX_ASSERT_MSG(false, "request cannot be an unwanted reply");
  }

  // ---- await the reply (block point) ---------------------------------
  trace::SpanScope wait_span(rec, tnode, "runtime", "call.wait", call_trace);
  Process::LinkState* lsp = p.find_link(link);
  if (lsp == nullptr || (lsp->destroyed && lsp->reply_q.empty())) {
    fail(call_trace, ErrorKind::kLinkDestroyed, "link died before reply");
  }
  Process::Delivered reply_msg{};
  if (!lsp->reply_q.empty()) {
    reply_msg = std::move(lsp->reply_q.front());
    lsp->reply_q.pop_front();
  } else {
    sim::OneShot<int> wake(engine());
    Process::CallRecord call_rec;
    call_rec.wake = &wake;
    lsp->active_call = &call_rec;
    ts.awaiting_reply_on = link;
    p.refresh_interest(*lsp);
    (void)co_await wake.take();
    ts.awaiting_reply_on = LinkHandle::invalid();
    if (auto* cur = p.find_link(link)) {
      cur->active_call = nullptr;
      if (!cur->destroyed) p.refresh_interest(*cur);
    }
    if (call_rec.failed) {
      if (call_rec.error == ErrorKind::kAborted) ts.abort_requested = false;
      fail(call_trace, call_rec.error, "call failed awaiting reply");
    }
    RELYNX_ASSERT(call_rec.reply.has_value());
    reply_msg = std::move(*call_rec.reply);
  }
  wait_span.end();

  // scatter + type check
  trace::SpanScope scatter_span(rec, tnode, "runtime", "call.scatter",
                                call_trace, reply_msg.raw_size);
  co_await engine().sleep(p.marshal_cost(reply_msg.raw_size));
  if (reply_msg.msg.op == "%reject") {
    fail(call_trace, ErrorKind::kOperationRejected, request.op);
  }
  if (reply_msg.msg.op != request.op) {
    fail(call_trace, ErrorKind::kTypeClash,
         "reply op '" + reply_msg.msg.op + "' for request '" + request.op +
             "'");
  }
  scatter_span.end();
  call_span.end();
  ++p.counts_.operations_completed;
  check_abort();
  co_return std::move(reply_msg.msg);
}

sim::Task<Incoming> ThreadCtx::receive() {
  Process& p = *proc_;
  for (;;) {
    check_abort();
    if (p.terminated_) {
      fail(0, ErrorKind::kLinkDestroyed, "process terminated");
    }
    // Fair scan: rotate over links, starting past the last served one.
    const std::size_t n = p.fair_order_.size();
    bool any_open_alive = false;
    bool any_open = false;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t idx = (p.fair_cursor_ + k) % n;
      Process::LinkState* ls = p.find_link(p.fair_order_[idx]);
      if (ls == nullptr || !ls->open_requests) continue;
      any_open = true;
      if (!ls->destroyed) any_open_alive = true;
      if (ls->request_q.empty()) continue;

      Process::Delivered d = std::move(ls->request_q.front());
      ls->request_q.pop_front();
      p.fair_cursor_ = idx + 1;
      {
        trace::SpanScope scatter(trace::get(engine()),
                                 p.backend_->trace_node(), "runtime",
                                 "recv.scatter", d.trace, d.raw_size);
        co_await engine().sleep(p.marshal_cost(d.raw_size));
      }
      const std::uint64_t token = p.next_token_++;
      p.owed_[token] = ls->handle;
      ++ls->owed_replies;
      ++p.counts_.operations_completed;
      co_return Incoming{ls->handle, std::move(d.msg), token, d.trace};
    }
    if (any_open && !any_open_alive) {
      fail(0, ErrorKind::kLinkDestroyed, "all open request queues destroyed");
    }
    co_await p.receive_waiters_->wait();
  }
}

sim::Task<void> ThreadCtx::reply(const Incoming& incoming, Message reply_msg) {
  check_abort();
  Process& p = *proc_;
  trace::Recorder* rec = trace::get(engine());
  const std::uint32_t tnode = p.backend_->trace_node();
  auto owed = p.owed_.find(incoming.token);
  if (owed == p.owed_.end()) {
    fail(incoming.trace, ErrorKind::kInvalidLink, "no such reply obligation");
  }
  const LinkHandle link = owed->second;
  Process::LinkState* ls = p.find_link(link);
  if (ls == nullptr || ls->destroyed) {
    p.owed_.erase(owed);
    fail(incoming.trace, ErrorKind::kLinkDestroyed, "reply on destroyed link");
  }

  reply_msg.op = incoming.msg.op;  // replies answer the operation called
  trace::SpanScope gather_span(rec, tnode, "runtime", "reply.gather",
                               incoming.trace);
  Serialized ser = p.marshal(reply_msg);
  co_await engine().sleep(p.marshal_cost(ser.body.size()));
  gather_span.end();
  check_fits(ser, incoming.trace);
  std::vector<BLink> blinks =
      p.check_and_stage_enclosures(link, ser.enclosures);

  trace::SpanScope send_span(rec, tnode, "runtime", "reply.send",
                             incoming.trace, ser.body.size());
  auto& ts = p.threads_.at(id_);
  sim::OneShot<SendOutcome> sent(engine());
  p.start_send(ts, *ls,
               WireMessage{MsgKind::kReply, std::move(ser.body),
                           std::move(blinks), incoming.trace},
               sent);
  SendOutcome out = co_await sent.take();
  if (auto* cur = p.finish_send(ts, link)) cur->call_serializer->wake_one();
  send_span.end();
  p.owed_.erase(incoming.token);
  if (auto* cur = p.find_link(link); cur != nullptr) --cur->owed_replies;

  switch (out.result) {
    case SendResult::kDelivered:
      for (LinkHandle h : ser.enclosures) p.drop_link(h);
      ++p.counts_.operations_completed;
      co_return;
    case SendResult::kCancelled:
      fail(incoming.trace, ErrorKind::kAborted, "reply aborted in flight");
    case SendResult::kLinkDestroyed:
      fail(incoming.trace, ErrorKind::kLinkDestroyed, "reply undeliverable");
    case SendResult::kReplyUnwanted:
      // Capability (4): SODA/Chrysalis backends detect an aborted
      // caller; the server feels the exception the language defines.
      fail(incoming.trace, ErrorKind::kReplyUnwanted, incoming.msg.op);
  }
}

}  // namespace lynx
