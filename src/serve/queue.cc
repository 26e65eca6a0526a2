#include "serve/queue.h"

#include <cstddef>

namespace mmlib::serve {

TenantQueues::TenantQueues(uint32_t tenant_count, const QueueOptions& options)
    : options_(options),
      queues_(tenant_count),
      deficits_(tenant_count, 0) {}

bool TenantQueues::Admit(const Request& request) {
  std::deque<Request>& queue = queues_[request.tenant];
  if (queue.size() >= options_.per_tenant_capacity) {
    return false;
  }
  queue.push_back(request);
  return true;
}

bool TenantQueues::PopNext(Request* out) {
  const uint32_t n = tenant_count();
  // Two sweeps: one to spend existing deficits plus one refill each; a
  // second because the first non-empty queue after the cursor may need the
  // refill the first sweep already granted to tenants before it.
  for (uint32_t step = 0; step < 2 * n; ++step) {
    const uint32_t t = cursor_;
    std::deque<Request>& queue = queues_[t];
    if (queue.empty()) {
      // An idle tenant banks no deficit; DRR fairness is about backlogged
      // tenants only.
      deficits_[t] = 0;
      cursor_ = (cursor_ + 1) % n;
      continue;
    }
    if (deficits_[t] == 0) {
      deficits_[t] = kDrrQuantum;
    }
    --deficits_[t];
    *out = queue.front();
    queue.pop_front();
    if (deficits_[t] == 0 || queue.empty()) {
      cursor_ = (cursor_ + 1) % n;
      if (queue.empty()) {
        deficits_[t] = 0;
      }
    }
    return true;
  }
  return false;
}

std::vector<Request> TenantQueues::ExpireBefore(double now_seconds) {
  std::vector<Request> expired;
  for (std::deque<Request>& queue : queues_) {
    for (size_t i = 0; i < queue.size();) {
      if (queue[i].deadline_seconds > 0.0 &&
          queue[i].deadline_seconds <= now_seconds) {
        expired.push_back(queue[i]);
        queue.erase(queue.begin() + static_cast<ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
  return expired;
}

}  // namespace mmlib::serve
