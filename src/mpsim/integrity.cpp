#include "mpsim/integrity.hpp"

#include <cstdio>
#include <mutex>
#include <thread>
#include <utility>

namespace ripples::mpsim {

std::chrono::microseconds retry_delay(int attempt) {
  if (attempt < 1) attempt = 1;
  std::chrono::microseconds delay = kBackoffBase;
  for (int i = 1; i < attempt && delay < kBackoffCap; ++i) delay *= 2;
  return delay < kBackoffCap ? delay : kBackoffCap;
}

namespace {

std::mutex hook_mutex;
BackoffHook backoff_hook;

} // namespace

BackoffHook set_backoff_hook(BackoffHook hook) {
  std::lock_guard<std::mutex> lock(hook_mutex);
  std::swap(backoff_hook, hook);
  return hook;
}

void backoff_sleep(int attempt) {
  const std::chrono::microseconds delay = retry_delay(attempt);
  BackoffHook hook;
  {
    std::lock_guard<std::mutex> lock(hook_mutex);
    hook = backoff_hook;
  }
  if (hook)
    hook(delay);
  else
    std::this_thread::sleep_for(delay);
}

namespace {

std::string payload_corrupt_message(const char *op, std::uint64_t site,
                                    int rank, int attempts) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "mpsim: payload corruption from rank %d at site %llu (%s) "
                "survived %d attempts",
                rank, static_cast<unsigned long long>(site), op, attempts);
  return buffer;
}

} // namespace

PayloadCorrupt::PayloadCorrupt(const char *op, std::uint64_t site, int rank,
                               int attempts)
    : std::runtime_error(payload_corrupt_message(op, site, rank, attempts)),
      op_(op), site_(site), rank_(rank), attempts_(attempts) {}

} // namespace ripples::mpsim
