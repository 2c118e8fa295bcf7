//===- mem/SimMemory.cpp --------------------------------------*- C++ -*-===//

#include "mem/SimMemory.h"

#include <cassert>
#include <cstring>

using namespace structslim;
using namespace structslim::mem;

SimMemory::Page &SimMemory::getOrCreatePage(uint64_t PageIndex) {
  auto &Slot = Pages[PageIndex];
  if (!Slot) {
    Slot = std::make_unique<Page>();
    Slot->fill(0);
  }
  return *Slot;
}

uint64_t SimMemory::read(uint64_t Addr, unsigned Size) const {
  assert((Size == 1 || Size == 2 || Size == 4 || Size == 8) &&
         "unsupported access size");
  uint64_t PageIndex = Addr >> PageBits;
  uint64_t Offset = Addr & (PageSize - 1);

  uint8_t Bytes[8] = {};
  if (Offset + Size <= PageSize) {
    if (const Page *P = findPage(PageIndex))
      std::memcpy(Bytes, P->data() + Offset, Size);
  } else {
    // Access straddles a page boundary; split it.
    unsigned FirstPart = static_cast<unsigned>(PageSize - Offset);
    if (const Page *P = findPage(PageIndex))
      std::memcpy(Bytes, P->data() + Offset, FirstPart);
    if (const Page *P = findPage(PageIndex + 1))
      std::memcpy(Bytes + FirstPart, P->data(), Size - FirstPart);
  }

  uint64_t Value = 0;
  std::memcpy(&Value, Bytes, sizeof(Value));
  if (Size < 8)
    Value &= (1ull << (Size * 8)) - 1;
  return Value;
}

void SimMemory::write(uint64_t Addr, unsigned Size, uint64_t Value) {
  assert((Size == 1 || Size == 2 || Size == 4 || Size == 8) &&
         "unsupported access size");
  uint64_t PageIndex = Addr >> PageBits;
  uint64_t Offset = Addr & (PageSize - 1);

  uint8_t Bytes[8];
  std::memcpy(Bytes, &Value, sizeof(Bytes));
  if (Offset + Size <= PageSize) {
    std::memcpy(getOrCreatePage(PageIndex).data() + Offset, Bytes, Size);
    return;
  }
  unsigned FirstPart = static_cast<unsigned>(PageSize - Offset);
  std::memcpy(getOrCreatePage(PageIndex).data() + Offset, Bytes, FirstPart);
  std::memcpy(getOrCreatePage(PageIndex + 1).data(), Bytes + FirstPart,
              Size - FirstPart);
}
