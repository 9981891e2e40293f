#include "tracer/memory.hpp"

#include <algorithm>
#include <bit>

namespace tdt::tracer {

std::size_t Memory::probe(std::uint64_t number) const noexcept {
  const std::size_t mask = index_.size() - 1;
  auto slot = static_cast<std::size_t>((number * 0x9e3779b97f4a7c15ULL) >>
                                       (64 - index_bits_));
  while (index_[slot] != 0 && pages_[index_[slot] - 1].number != number) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

const Memory::Page* Memory::find(std::uint64_t number) const {
  const std::uint32_t at = index_[probe(number)];
  return at == 0 ? nullptr : &pages_[at - 1];
}

Memory::Page& Memory::page(std::uint64_t number) {
  std::size_t slot = probe(number);
  if (index_[slot] != 0) return pages_[index_[slot] - 1];
  // Keep the index at most half full: rebuild it twice as large.
  if ((pages_.size() + 1) * 2 > index_.size()) {
    ++index_bits_;
    index_.assign(std::size_t{1} << index_bits_, 0);
    for (std::size_t p = 0; p < pages_.size(); ++p) {
      index_[probe(pages_[p].number)] = static_cast<std::uint32_t>(p + 1);
    }
    slot = probe(number);
  }
  pages_.push_back(Page{number, {}});
  index_[slot] = static_cast<std::uint32_t>(pages_.size());
  return pages_.back();
}

bool Memory::before(const Cell& cell, std::uint8_t offset) noexcept {
  return cell.offset < offset;
}

std::optional<Value> Memory::load(std::uint64_t address) const {
  const Page* page = find(address >> kPageBits);
  if (page == nullptr) return std::nullopt;
  const auto offset = static_cast<std::uint8_t>(address);
  const auto it = std::lower_bound(page->cells.begin(), page->cells.end(),
                                   offset, before);
  if (it == page->cells.end() || it->offset != offset) return std::nullopt;
  Value v;
  v.kind = it->kind;
  v.pointee = it->pointee;
  switch (it->kind) {
    case Value::Kind::Int:
      v.i = std::bit_cast<std::int64_t>(it->payload);
      break;
    case Value::Kind::Real:
      v.d = std::bit_cast<double>(it->payload);
      break;
    case Value::Kind::Ptr:
      v.addr = it->payload;
      break;
  }
  return v;
}

void Memory::store(std::uint64_t address, const Value& v) {
  Cell cell;
  cell.pointee = v.pointee;
  cell.offset = static_cast<std::uint8_t>(address);
  cell.kind = v.kind;
  switch (v.kind) {
    case Value::Kind::Int:
      cell.payload = std::bit_cast<std::uint64_t>(v.i);
      break;
    case Value::Kind::Real:
      cell.payload = std::bit_cast<std::uint64_t>(v.d);
      break;
    case Value::Kind::Ptr:
      cell.payload = v.addr;
      break;
  }
  std::vector<Cell>& cells = page(address >> kPageBits).cells;
  if (cells.empty() || cells.back().offset < cell.offset) {
    cells.push_back(cell);  // the common case: addresses stored in order
    return;
  }
  const auto it =
      std::lower_bound(cells.begin(), cells.end(), cell.offset, before);
  if (it != cells.end() && it->offset == cell.offset) {
    *it = cell;
  } else {
    cells.insert(it, cell);
  }
}

}  // namespace tdt::tracer
