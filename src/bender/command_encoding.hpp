#pragma once

#include <cstdint>
#include <string>

#include "bender/program.hpp"

namespace simra::bender {

/// DDR4 command-bus pin state for one command slot (JESD79-4 command
/// truth table). DDR4 multiplexes the command onto ACT_n plus the three
/// legacy strobes that double as address bits A16/A15/A14 when ACT_n is
/// high; the row address shares the A[17:0] pins.
struct PinState {
  bool cs_n = true;   ///< chip select, active low; true = DESELECT.
  bool act_n = true;  ///< activation command pin, active low.
  bool ras_n = true;  ///< RAS_n / A16.
  bool cas_n = true;  ///< CAS_n / A15.
  bool we_n = true;   ///< WE_n / A14.
  std::uint32_t address = 0;  ///< A[17:0]; row, or column + A10 flags.
  std::uint8_t bank_group = 0;  ///< BG[1:0].
  std::uint8_t bank = 0;        ///< BA[1:0].

  bool operator==(const PinState&) const = default;

  /// One-line rendering ("CS# L ACT# L BG1 BA2 A=0x00ff ...").
  std::string to_string() const;
};

/// Encodes/decodes between the testbed's command representation and the
/// DDR4 pin truth table. The host software (this layer) is what the
/// paper's DRAM Bender programs ultimately compile to.
class CommandEncoder {
 public:
  /// A10 flag: auto-precharge for RD/WR, all-banks for PRE.
  static constexpr std::uint32_t kA10 = 1u << 10;

  /// Encodes a command's slot into pin state. Column-bearing commands
  /// encode the *column address* (bit offset / 64-bit burst).
  static PinState encode(const TimedCommand& command);

  /// Decoded view of a pin state.
  struct Decoded {
    enum class Kind : std::uint8_t {
      kDeselect,
      kActivate,
      kPrecharge,
      kPrechargeAll,
      kRead,
      kWrite,
      kRefresh,
      kUnknown,
    };
    Kind kind = Kind::kDeselect;
    dram::BankId bank = 0;       ///< flat bank id (BG * 4 + BA).
    dram::RowAddr row = 0;       ///< for kActivate.
    std::uint32_t column = 0;    ///< burst-granular column for RD/WR.
    bool auto_precharge = false; ///< A10 on a RD/WR: close the row after.
  };

  static Decoded decode(const PinState& pins);

  /// Flat bank id <-> (bank group, bank address) split used on the bus.
  static std::uint8_t bank_group_of(dram::BankId bank) { return bank >> 2; }
  static std::uint8_t bank_address_of(dram::BankId bank) { return bank & 3; }
};

}  // namespace simra::bender
