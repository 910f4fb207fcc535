#include "bender/command_encoding.hpp"

#include <sstream>
#include <stdexcept>

namespace simra::bender {

std::string PinState::to_string() const {
  std::ostringstream os;
  auto pin = [](bool high) { return high ? 'H' : 'L'; };
  os << "CS#" << pin(cs_n) << " ACT#" << pin(act_n) << " RAS#" << pin(ras_n)
     << " CAS#" << pin(cas_n) << " WE#" << pin(we_n) << " BG"
     << static_cast<int>(bank_group) << " BA" << static_cast<int>(bank)
     << " A=0x" << std::hex << address;
  return os.str();
}

PinState CommandEncoder::encode(const TimedCommand& command) {
  PinState pins;
  pins.cs_n = false;  // command slots always select the rank.
  pins.bank_group = bank_group_of(command.bank);
  pins.bank = bank_address_of(command.bank);
  switch (command.kind) {
    case CommandKind::kAct:
      pins.act_n = false;
      // With ACT_n low, RAS/CAS/WE carry row address bits A16..A14.
      pins.ras_n = (command.row >> 16) & 1u;
      pins.cas_n = (command.row >> 15) & 1u;
      pins.we_n = (command.row >> 14) & 1u;
      pins.address = command.row & 0x3FFFu;
      break;
    case CommandKind::kPre:
      pins.ras_n = false;
      pins.cas_n = true;
      pins.we_n = false;
      // A10 high: precharge-all; low: single-bank precharge.
      pins.address = command.a10 ? kA10 : 0;
      break;
    case CommandKind::kRd:
      pins.ras_n = true;
      pins.cas_n = false;
      pins.we_n = true;
      pins.address = ((command.col / 64) & 0x3FFu) |
                     (command.a10 ? kA10 : 0);
      break;
    case CommandKind::kWr:
      pins.ras_n = true;
      pins.cas_n = false;
      pins.we_n = false;
      pins.address = ((command.col / 64) & 0x3FFu) |
                     (command.a10 ? kA10 : 0);
      break;
    case CommandKind::kRef:
      pins.ras_n = false;
      pins.cas_n = false;
      pins.we_n = true;
      break;
  }
  return pins;
}

CommandEncoder::Decoded CommandEncoder::decode(const PinState& pins) {
  Decoded out;
  if (pins.cs_n) {
    out.kind = Decoded::Kind::kDeselect;
    return out;
  }
  out.bank = static_cast<dram::BankId>((pins.bank_group << 2) | pins.bank);
  if (!pins.act_n) {
    out.kind = Decoded::Kind::kActivate;
    out.row = (static_cast<dram::RowAddr>(pins.ras_n) << 16) |
              (static_cast<dram::RowAddr>(pins.cas_n) << 15) |
              (static_cast<dram::RowAddr>(pins.we_n) << 14) |
              (pins.address & 0x3FFFu);
    return out;
  }
  const unsigned strobes = (pins.ras_n ? 4u : 0u) | (pins.cas_n ? 2u : 0u) |
                           (pins.we_n ? 1u : 0u);
  switch (strobes) {
    case 0b010:  // RAS low, CAS high, WE low.
      out.kind = (pins.address & kA10) ? Decoded::Kind::kPrechargeAll
                                       : Decoded::Kind::kPrecharge;
      break;
    case 0b101:  // RAS high, CAS low, WE high.
      out.kind = Decoded::Kind::kRead;
      out.column = pins.address & 0x3FFu;
      out.auto_precharge = (pins.address & kA10) != 0;
      break;
    case 0b100:  // RAS high, CAS low, WE low.
      out.kind = Decoded::Kind::kWrite;
      out.column = pins.address & 0x3FFu;
      out.auto_precharge = (pins.address & kA10) != 0;
      break;
    case 0b001:  // RAS low, CAS low, WE high.
      out.kind = Decoded::Kind::kRefresh;
      break;
    default:
      out.kind = Decoded::Kind::kUnknown;
      break;
  }
  return out;
}

}  // namespace simra::bender
