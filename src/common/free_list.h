// A bounded per-thread free list: a thread that keeps releasing and
// re-acquiring objects of one kind (the cursors' windows, Service's scan
// item strings) gets back objects whose buffers are already grown, instead
// of allocating fresh ones. There is one list of at most N objects per
// thread and (T, N). An object given back after the thread's list was
// destroyed at thread exit (from another thread_local's destructor) is
// dropped instead, so a late release never touches the dead list.
#ifndef WH_SRC_COMMON_FREE_LIST_H_
#define WH_SRC_COMMON_FREE_LIST_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace wh {

template <typename T, size_t N>
class ThreadFreeList {
 public:
  // Moves a parked object into *out; false (and *out untouched) if none.
  static bool Take(T* out) {
    if (gone_ || list_.items.empty()) {
      return false;
    }
    *out = std::move(list_.items.back());
    list_.items.pop_back();
    return true;
  }
  // Parks v, unless the list is full or gone.
  static void Give(T&& v) {
    if (!gone_ && list_.items.size() < N) {
      list_.items.push_back(std::move(v));
    }
  }

 private:
  struct List {
    std::vector<T> items;
    ~List() { gone_ = true; }
  };
  // Trivially destructible, so it stays readable after List's destructor.
  static inline thread_local bool gone_ = false;
  static inline thread_local List list_;
};

}  // namespace wh

#endif  // WH_SRC_COMMON_FREE_LIST_H_
