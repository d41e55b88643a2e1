#include "src/art/art.h"

#include <cassert>
#include <cstring>

#include "src/common/bytes.h"

namespace wh {

struct ArtTree::ArtLeaf {
  ArtNode base{NodeType::kLeaf};
  std::string key;  // original key, without the terminator
  std::string value;
};

struct ArtTree::Inner {
  ArtNode base;
  std::string prefix;  // compressed path bytes below the parent edge
  uint16_t count = 0;
};

struct ArtTree::Node4 {
  Inner in{{NodeType::kNode4}, {}, 0};
  uint8_t bytes[4];  // sorted
  ArtNode* child[4];
};

struct ArtTree::Node16 {
  Inner in{{NodeType::kNode16}, {}, 0};
  uint8_t bytes[16];  // sorted
  ArtNode* child[16];
};

struct ArtTree::Node48 {
  Inner in{{NodeType::kNode48}, {}, 0};
  uint8_t index[256];  // 0xff = empty, else slot into child
  ArtNode* child[48];
  Node48() {
    std::memset(index, 0xff, sizeof(index));
    std::memset(child, 0, sizeof(child));
  }
};

struct ArtTree::Node256 {
  Inner in{{NodeType::kNode256}, {}, 0};
  ArtNode* child[256];
  Node256() { std::memset(child, 0, sizeof(child)); }
};

namespace {

std::string Terminated(std::string_view key) {
  std::string tk(key);
  tk.push_back('\0');
  return tk;
}

}  // namespace

#define WH_ART_AS(T, n) reinterpret_cast<T*>(n)
#define WH_ART_AS_C(T, n) reinterpret_cast<const T*>(n)

ArtTree::ArtNode** ArtTree::FindChild(Inner* in, uint8_t byte) {
  switch (in->base.type) {
    case NodeType::kNode4: {
      Node4* n = WH_ART_AS(Node4, in);
      for (uint16_t i = 0; i < in->count; i++) {
        if (n->bytes[i] == byte) {
          return &n->child[i];
        }
      }
      return nullptr;
    }
    case NodeType::kNode16: {
      Node16* n = WH_ART_AS(Node16, in);
      for (uint16_t i = 0; i < in->count; i++) {
        if (n->bytes[i] == byte) {
          return &n->child[i];
        }
      }
      return nullptr;
    }
    case NodeType::kNode48: {
      Node48* n = WH_ART_AS(Node48, in);
      return n->index[byte] == 0xff ? nullptr : &n->child[n->index[byte]];
    }
    case NodeType::kNode256: {
      Node256* n = WH_ART_AS(Node256, in);
      return n->child[byte] == nullptr ? nullptr : &n->child[byte];
    }
    default:
      return nullptr;
  }
}

void ArtTree::AddChild(ArtNode** ref, uint8_t byte, ArtNode* child) {
  Inner* in = WH_ART_AS(Inner, *ref);
  switch (in->base.type) {
    case NodeType::kNode4: {
      Node4* n = WH_ART_AS(Node4, in);
      if (in->count < 4) {
        uint16_t pos = 0;
        while (pos < in->count && n->bytes[pos] < byte) {
          pos++;
        }
        std::memmove(n->bytes + pos + 1, n->bytes + pos, in->count - pos);
        std::memmove(n->child + pos + 1, n->child + pos,
                     (in->count - pos) * sizeof(ArtNode*));
        n->bytes[pos] = byte;
        n->child[pos] = child;
        in->count++;
        return;
      }
      Node16* big = new Node16;
      big->in.prefix = std::move(in->prefix);
      big->in.count = in->count;
      std::memcpy(big->bytes, n->bytes, in->count);
      std::memcpy(big->child, n->child, in->count * sizeof(ArtNode*));
      delete n;
      *ref = &big->in.base;
      AddChild(ref, byte, child);
      return;
    }
    case NodeType::kNode16: {
      Node16* n = WH_ART_AS(Node16, in);
      if (in->count < 16) {
        uint16_t pos = 0;
        while (pos < in->count && n->bytes[pos] < byte) {
          pos++;
        }
        std::memmove(n->bytes + pos + 1, n->bytes + pos, in->count - pos);
        std::memmove(n->child + pos + 1, n->child + pos,
                     (in->count - pos) * sizeof(ArtNode*));
        n->bytes[pos] = byte;
        n->child[pos] = child;
        in->count++;
        return;
      }
      Node48* big = new Node48;
      big->in.prefix = std::move(in->prefix);
      big->in.count = in->count;
      for (uint16_t i = 0; i < in->count; i++) {
        big->index[n->bytes[i]] = static_cast<uint8_t>(i);
        big->child[i] = n->child[i];
      }
      delete n;
      *ref = &big->in.base;
      AddChild(ref, byte, child);
      return;
    }
    case NodeType::kNode48: {
      Node48* n = WH_ART_AS(Node48, in);
      if (in->count < 48) {
        uint8_t slot = 0;
        while (n->child[slot] != nullptr) {
          slot++;
        }
        n->index[byte] = slot;
        n->child[slot] = child;
        in->count++;
        return;
      }
      Node256* big = new Node256;
      big->in.base.type = NodeType::kNode256;
      big->in.prefix = std::move(in->prefix);
      big->in.count = in->count;
      for (int b = 0; b < 256; b++) {
        if (n->index[b] != 0xff) {
          big->child[b] = n->child[n->index[b]];
        }
      }
      delete n;
      *ref = &big->in.base;
      AddChild(ref, byte, child);
      return;
    }
    case NodeType::kNode256: {
      Node256* n = WH_ART_AS(Node256, in);
      n->child[byte] = child;
      in->count++;
      return;
    }
    default:
      assert(false);
  }
}

void ArtTree::RemoveChild(ArtNode** ref, uint8_t byte) {
  Inner* in = WH_ART_AS(Inner, *ref);
  switch (in->base.type) {
    case NodeType::kNode4: {
      Node4* n = WH_ART_AS(Node4, in);
      uint16_t pos = 0;
      while (pos < in->count && n->bytes[pos] != byte) {
        pos++;
      }
      assert(pos < in->count);
      std::memmove(n->bytes + pos, n->bytes + pos + 1, in->count - pos - 1);
      std::memmove(n->child + pos, n->child + pos + 1,
                   (in->count - pos - 1) * sizeof(ArtNode*));
      in->count--;
      if (in->count == 1) {
        // Collapse the one-way node into its remaining child.
        ArtNode* only = n->child[0];
        if (only->type == NodeType::kLeaf) {
          *ref = only;
        } else {
          Inner* ci = WH_ART_AS(Inner, only);
          std::string merged = std::move(in->prefix);
          merged.push_back(static_cast<char>(n->bytes[0]));
          merged.append(ci->prefix);
          ci->prefix = std::move(merged);
          *ref = only;
        }
        delete n;
      }
      return;
    }
    case NodeType::kNode16: {
      Node16* n = WH_ART_AS(Node16, in);
      uint16_t pos = 0;
      while (pos < in->count && n->bytes[pos] != byte) {
        pos++;
      }
      assert(pos < in->count);
      std::memmove(n->bytes + pos, n->bytes + pos + 1, in->count - pos - 1);
      std::memmove(n->child + pos, n->child + pos + 1,
                   (in->count - pos - 1) * sizeof(ArtNode*));
      in->count--;
      return;
    }
    case NodeType::kNode48: {
      Node48* n = WH_ART_AS(Node48, in);
      assert(n->index[byte] != 0xff);
      n->child[n->index[byte]] = nullptr;
      n->index[byte] = 0xff;
      in->count--;
      return;
    }
    case NodeType::kNode256: {
      Node256* n = WH_ART_AS(Node256, in);
      n->child[byte] = nullptr;
      in->count--;
      return;
    }
    default:
      assert(false);
  }
}

bool ArtTree::Get(std::string_view key, std::string* value) {
  const std::string tk = Terminated(key);
  const ArtNode* n = root_;
  size_t depth = 0;
  while (n != nullptr) {
    if (n->type == NodeType::kLeaf) {
      const ArtLeaf* l = WH_ART_AS_C(ArtLeaf, n);
      if (l->key != key) {
        return false;
      }
      if (value != nullptr) {
        value->assign(l->value);
      }
      return true;
    }
    const Inner* in = WH_ART_AS_C(Inner, n);
    const size_t plen = in->prefix.size();
    if (depth + plen + 1 > tk.size() ||
        std::memcmp(in->prefix.data(), tk.data() + depth, plen) != 0) {
      return false;
    }
    depth += plen;
    ArtNode** child = FindChild(const_cast<Inner*>(in), static_cast<uint8_t>(tk[depth]));
    if (child == nullptr) {
      return false;
    }
    n = *child;
    depth++;
  }
  return false;
}

void ArtTree::Put(std::string_view key, std::string_view value) {
  const std::string tk = Terminated(key);
  ArtNode** ref = &root_;
  size_t depth = 0;
  while (true) {
    ArtNode* n = *ref;
    if (n == nullptr) {
      ArtLeaf* l = new ArtLeaf;
      l->key.assign(key);
      l->value.assign(value);
      *ref = &l->base;
      return;
    }
    if (n->type == NodeType::kLeaf) {
      ArtLeaf* l = WH_ART_AS(ArtLeaf, n);
      if (l->key == key) {
        l->value.assign(value);
        return;
      }
      // Fork: the terminator byte guarantees the two keys diverge before
      // either terminated key ends.
      const std::string ltk = Terminated(l->key);
      size_t p = 0;
      while (ltk[depth + p] == tk[depth + p]) {
        p++;
      }
      Node4* fork = new Node4;
      fork->in.prefix.assign(tk, depth, p);
      ArtLeaf* nl = new ArtLeaf;
      nl->key.assign(key);
      nl->value.assign(value);
      *ref = &fork->in.base;
      AddChild(ref, static_cast<uint8_t>(ltk[depth + p]), &l->base);
      AddChild(ref, static_cast<uint8_t>(tk[depth + p]), &nl->base);
      return;
    }
    Inner* in = WH_ART_AS(Inner, n);
    size_t p = 0;
    while (p < in->prefix.size() && depth + p < tk.size() &&
           in->prefix[p] == tk[depth + p]) {
      p++;
    }
    if (p < in->prefix.size()) {
      // Split the compressed path at the divergence point.
      Node4* fork = new Node4;
      fork->in.prefix.assign(in->prefix, 0, p);
      const uint8_t old_byte = static_cast<uint8_t>(in->prefix[p]);
      in->prefix.erase(0, p + 1);
      ArtLeaf* nl = new ArtLeaf;
      nl->key.assign(key);
      nl->value.assign(value);
      *ref = &fork->in.base;
      AddChild(ref, old_byte, &in->base);
      AddChild(ref, static_cast<uint8_t>(tk[depth + p]), &nl->base);
      return;
    }
    depth += in->prefix.size();
    const uint8_t b = static_cast<uint8_t>(tk[depth]);
    ArtNode** child = FindChild(in, b);
    if (child == nullptr) {
      ArtLeaf* nl = new ArtLeaf;
      nl->key.assign(key);
      nl->value.assign(value);
      AddChild(ref, b, &nl->base);
      return;
    }
    ref = child;
    depth++;
  }
}

bool ArtTree::Delete(std::string_view key) {
  const std::string tk = Terminated(key);
  ArtNode** ref = &root_;
  size_t depth = 0;
  while (true) {
    ArtNode* n = *ref;
    if (n == nullptr) {
      return false;
    }
    if (n->type == NodeType::kLeaf) {
      ArtLeaf* l = WH_ART_AS(ArtLeaf, n);
      if (l->key != key) {
        return false;
      }
      // Only reachable when the leaf is the root; interior leaves are removed
      // through their parent below.
      delete l;
      *ref = nullptr;
      return true;
    }
    Inner* in = WH_ART_AS(Inner, n);
    const size_t plen = in->prefix.size();
    if (depth + plen + 1 > tk.size() ||
        std::memcmp(in->prefix.data(), tk.data() + depth, plen) != 0) {
      return false;
    }
    depth += plen;
    const uint8_t b = static_cast<uint8_t>(tk[depth]);
    ArtNode** child = FindChild(in, b);
    if (child == nullptr) {
      return false;
    }
    if ((*child)->type == NodeType::kLeaf) {
      ArtLeaf* l = WH_ART_AS(ArtLeaf, *child);
      if (l->key != key) {
        return false;
      }
      delete l;
      RemoveChild(ref, b);
      return true;
    }
    ref = child;
    depth++;
  }
}

template <typename Fn>
bool ArtTree::ForEachChild(const Inner* in, bool ascending, const Fn& fn) {
  switch (in->base.type) {
    case NodeType::kNode4:
    case NodeType::kNode16: {
      // Node4 and Node16 share the sorted (bytes[], child[]) layout.
      const uint8_t* bytes;
      ArtNode* const* child;
      if (in->base.type == NodeType::kNode4) {
        const Node4* n = WH_ART_AS_C(Node4, in);
        bytes = n->bytes;
        child = n->child;
      } else {
        const Node16* n = WH_ART_AS_C(Node16, in);
        bytes = n->bytes;
        child = n->child;
      }
      for (uint16_t i = 0; i < in->count; i++) {
        const uint16_t at = ascending ? i : static_cast<uint16_t>(in->count - 1 - i);
        if (!fn(bytes[at], child[at])) {
          return false;
        }
      }
      return true;
    }
    case NodeType::kNode48: {
      const Node48* n = WH_ART_AS_C(Node48, in);
      for (int i = 0; i < 256; i++) {
        const int b = ascending ? i : 255 - i;
        if (n->index[b] != 0xff &&
            !fn(static_cast<uint8_t>(b), n->child[n->index[b]])) {
          return false;
        }
      }
      return true;
    }
    case NodeType::kNode256: {
      const Node256* n = WH_ART_AS_C(Node256, in);
      for (int i = 0; i < 256; i++) {
        const int b = ascending ? i : 255 - i;
        if (n->child[b] != nullptr && !fn(static_cast<uint8_t>(b), n->child[b])) {
          return false;
        }
      }
      return true;
    }
    default:
      assert(false);
      return true;
  }
}

// Deletion never unlinks an inner node that runs out of children (only Node4
// collapses), so any subtree may be a childless husk: both extremum walks
// return nullptr for those and callers move on to the next sibling.
const ArtTree::ArtLeaf* ArtTree::MinLeaf(const ArtNode* n) {
  while (n != nullptr && n->type != NodeType::kLeaf) {
    const Inner* in = WH_ART_AS_C(Inner, n);
    const ArtNode* first = nullptr;
    ForEachChild(in, /*ascending=*/true, [&](uint8_t, const ArtNode* c) {
      first = c;
      return false;
    });
    n = first;
  }
  return WH_ART_AS_C(ArtLeaf, n);
}

const ArtTree::ArtLeaf* ArtTree::MaxLeaf(const ArtNode* n) {
  while (n != nullptr && n->type != NodeType::kLeaf) {
    const Inner* in = WH_ART_AS_C(Inner, n);
    const ArtNode* last = nullptr;
    ForEachChild(in, /*ascending=*/false, [&](uint8_t, const ArtNode* c) {
      last = c;
      return false;
    });
    n = last;
  }
  return WH_ART_AS_C(ArtLeaf, n);
}

const ArtTree::ArtLeaf* ArtTree::CeilRec(const ArtNode* n, const std::string& tk,
                                         std::string_view target, size_t depth,
                                         bool free, bool strict) {
  if (n->type == NodeType::kLeaf) {
    const ArtLeaf* l = WH_ART_AS_C(ArtLeaf, n);
    const bool ok = free || (strict ? l->key > target : l->key >= target);
    return ok ? l : nullptr;
  }
  const Inner* in = WH_ART_AS_C(Inner, n);
  if (!free) {
    for (size_t i = 0; i < in->prefix.size(); i++) {
      if (depth + i >= tk.size()) {
        free = true;  // path extends the whole target: all keys sort after it
        break;
      }
      const uint8_t pb = static_cast<uint8_t>(in->prefix[i]);
      const uint8_t sb = static_cast<uint8_t>(tk[depth + i]);
      if (pb > sb) {
        free = true;
        break;
      }
      if (pb < sb) {
        return nullptr;  // subtree sorts entirely before target
      }
    }
  }
  const size_t d = depth + in->prefix.size();
  if (!free && d >= tk.size()) {
    free = true;  // target exhausted at the branch byte: every child is above
  }
  const uint8_t sb = free ? 0 : static_cast<uint8_t>(tk[d]);
  const ArtLeaf* result = nullptr;
  ForEachChild(in, /*ascending=*/true, [&](uint8_t b, const ArtNode* child) {
    if (!free && b < sb) {
      return true;  // entire subtree sorts before target
    }
    if (free || b > sb) {
      // Wholly past the bound: its minimum wins — unless the subtree is a
      // deletion husk, in which case the search continues rightwards.
      result = MinLeaf(child);
      return result == nullptr;
    }
    result = CeilRec(child, tk, target, d + 1, false, strict);
    return result == nullptr;  // equal-byte subtree may miss; keep going
  });
  return result;
}

const ArtTree::ArtLeaf* ArtTree::FloorRec(const ArtNode* n, const std::string& tk,
                                          std::string_view target, size_t depth,
                                          bool free, bool strict) {
  if (n->type == NodeType::kLeaf) {
    const ArtLeaf* l = WH_ART_AS_C(ArtLeaf, n);
    const bool ok = free || (strict ? l->key < target : l->key <= target);
    return ok ? l : nullptr;
  }
  const Inner* in = WH_ART_AS_C(Inner, n);
  if (!free) {
    for (size_t i = 0; i < in->prefix.size(); i++) {
      if (depth + i >= tk.size()) {
        return nullptr;  // path extends the whole target: all keys sort after
      }
      const uint8_t pb = static_cast<uint8_t>(in->prefix[i]);
      const uint8_t sb = static_cast<uint8_t>(tk[depth + i]);
      if (pb < sb) {
        free = true;
        break;
      }
      if (pb > sb) {
        return nullptr;  // subtree sorts entirely after target
      }
    }
  }
  const size_t d = depth + in->prefix.size();
  if (!free && d >= tk.size()) {
    return nullptr;  // target exhausted at the branch byte: every child is above
  }
  const uint8_t sb = free ? 0 : static_cast<uint8_t>(tk[d]);
  const ArtLeaf* result = nullptr;
  ForEachChild(in, /*ascending=*/false, [&](uint8_t b, const ArtNode* child) {
    if (!free && b > sb) {
      return true;  // entire subtree sorts after target
    }
    if (free || b < sb) {
      result = MaxLeaf(child);  // wholly below the bound: its maximum wins
      return result == nullptr;
    }
    result = FloorRec(child, tk, target, d + 1, false, strict);
    return result == nullptr;
  });
  return result;
}

// Each positioning call is one bounded descent from the root for the
// successor / predecessor of the bound, so the cursor carries no node stack
// that a Put/Delete could invalidate — only the current leaf pointer (which
// any mutation still invalidates, per the cursor.h contract).
class ArtTree::CursorImpl : public Cursor {
 public:
  explicit CursorImpl(ArtTree* tree) : tree_(tree) {}

  void Seek(std::string_view target) override { Position(target, false, false); }
  void SeekForPrev(std::string_view target) override {
    Position(target, true, false);
  }

  bool Valid() const override { return leaf_ != nullptr; }

  void Next() override {
    if (leaf_ != nullptr) {
      Position(leaf_->key, false, true);
    }
  }

  void Prev() override {
    if (leaf_ != nullptr) {
      Position(leaf_->key, true, true);
    }
  }

  std::string_view key() const override { return leaf_->key; }
  std::string_view value() const override { return leaf_->value; }

 private:
  void Position(std::string_view target, bool backward, bool strict) {
    if (tree_->root_ == nullptr) {
      leaf_ = nullptr;
      return;
    }
    // Terminated(target) may outlive `target` itself (Next passes the current
    // leaf's key), so build it before anything else.
    const std::string tk = Terminated(target);
    leaf_ = backward ? FloorRec(tree_->root_, tk, target, 0, false, strict)
                     : CeilRec(tree_->root_, tk, target, 0, false, strict);
  }

  ArtTree* tree_;
  const ArtLeaf* leaf_ = nullptr;
};

std::unique_ptr<Cursor> ArtTree::NewCursor() {
  return std::make_unique<CursorImpl>(this);
}

size_t ArtTree::Scan(std::string_view start, size_t count, const ScanFn& fn) {
  CursorImpl c(this);
  return ScanViaCursor(&c, start, count, fn);
}

void ArtTree::FreeNode(ArtNode* n) {
  if (n == nullptr) {
    return;
  }
  switch (n->type) {
    case NodeType::kLeaf:
      delete WH_ART_AS(ArtLeaf, n);
      return;
    case NodeType::kNode4: {
      Node4* node = WH_ART_AS(Node4, n);
      for (uint16_t i = 0; i < node->in.count; i++) {
        FreeNode(node->child[i]);
      }
      delete node;
      return;
    }
    case NodeType::kNode16: {
      Node16* node = WH_ART_AS(Node16, n);
      for (uint16_t i = 0; i < node->in.count; i++) {
        FreeNode(node->child[i]);
      }
      delete node;
      return;
    }
    case NodeType::kNode48: {
      Node48* node = WH_ART_AS(Node48, n);
      for (int slot = 0; slot < 48; slot++) {
        FreeNode(node->child[slot]);
      }
      delete node;
      return;
    }
    case NodeType::kNode256: {
      Node256* node = WH_ART_AS(Node256, n);
      for (int b = 0; b < 256; b++) {
        FreeNode(node->child[b]);
      }
      delete node;
      return;
    }
  }
}

uint64_t ArtTree::NodeBytes(const ArtNode* n) {
  if (n == nullptr) {
    return 0;
  }
  switch (n->type) {
    case NodeType::kLeaf: {
      const ArtLeaf* l = WH_ART_AS_C(ArtLeaf, n);
      return sizeof(ArtLeaf) + StrHeapBytes(l->key) + StrHeapBytes(l->value);
    }
    case NodeType::kNode4: {
      const Node4* node = WH_ART_AS_C(Node4, n);
      uint64_t total = sizeof(Node4) + StrHeapBytes(node->in.prefix);
      for (uint16_t i = 0; i < node->in.count; i++) {
        total += NodeBytes(node->child[i]);
      }
      return total;
    }
    case NodeType::kNode16: {
      const Node16* node = WH_ART_AS_C(Node16, n);
      uint64_t total = sizeof(Node16) + StrHeapBytes(node->in.prefix);
      for (uint16_t i = 0; i < node->in.count; i++) {
        total += NodeBytes(node->child[i]);
      }
      return total;
    }
    case NodeType::kNode48: {
      const Node48* node = WH_ART_AS_C(Node48, n);
      uint64_t total = sizeof(Node48) + StrHeapBytes(node->in.prefix);
      for (int slot = 0; slot < 48; slot++) {
        total += NodeBytes(node->child[slot]);
      }
      return total;
    }
    case NodeType::kNode256: {
      const Node256* node = WH_ART_AS_C(Node256, n);
      uint64_t total = sizeof(Node256) + StrHeapBytes(node->in.prefix);
      for (int b = 0; b < 256; b++) {
        total += NodeBytes(node->child[b]);
      }
      return total;
    }
  }
  return 0;
}

#undef WH_ART_AS
#undef WH_ART_AS_C

ArtTree::~ArtTree() { FreeNode(root_); }

uint64_t ArtTree::MemoryBytes() const { return sizeof(*this) + NodeBytes(root_); }

}  // namespace wh
