#include "src/switchsim/register_array.h"

#include <algorithm>

#include "src/common/snapshot.h"

namespace ow {

RegisterArray::RegisterArray(std::string name, std::size_t entries,
                             std::size_t entry_bytes)
    : name_(std::move(name)), entry_bytes_(entry_bytes) {
  if (entries == 0 || entry_bytes == 0 || entry_bytes > 8) {
    throw std::invalid_argument("RegisterArray " + name_ + ": bad geometry");
  }
  cells_.assign(entries, 0);
}

void RegisterArray::ThrowOutOfRange(std::size_t index) const {
  throw std::out_of_range("RegisterArray " + name_ + ": index " +
                          std::to_string(index) + " out of " +
                          std::to_string(cells_.size()));
}

void RegisterArray::ThrowDoubleAccess() const {
  throw std::logic_error(
      "RegisterArray " + name_ +
      ": second SALU access in one pipeline pass (violates RMT C4)");
}

std::uint64_t RegisterArray::ControlRead(std::size_t index) const {
  if (index >= cells_.size()) {
    throw std::out_of_range("RegisterArray " + name_ + ": control read OOB");
  }
  return cells_[index];
}

void RegisterArray::Save(SnapshotWriter& w) const {
  w.Section(snap::kRegisterArray);
  w.PodVec(cells_);
}

std::vector<std::uint64_t> RegisterArray::Decode(SnapshotReader& r) const {
  r.Section(snap::kRegisterArray);
  const std::size_t found = r.Size();
  CheckShape(snap::kRegisterArray, ("RegisterArray " + name_).c_str(),
             "cell count", cells_.size(), found);
  std::vector<std::uint64_t> cells(found);
  if (found != 0) r.Bytes(cells.data(), found * sizeof(cells[0]));
  return cells;
}

void RegisterArray::Commit(const std::vector<std::uint64_t>& cells) noexcept {
  // Decode checked the size; copy rather than adopt, so the cells keep
  // their address.
  std::copy(cells.begin(), cells.end(), cells_.begin());
}

void RegisterArray::ControlWrite(std::size_t index, std::uint64_t value) {
  if (index >= cells_.size()) {
    throw std::out_of_range("RegisterArray " + name_ + ": control write OOB");
  }
  cells_[index] = Truncate(value);
}

}  // namespace ow
