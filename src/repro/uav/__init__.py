"""UAV substrate: the simulated Crazyflie 2.1 and its firmware behaviour.

Models the vehicle the toolchain rides on: kinematic flight, the
battery/endurance envelope, the two expansion decks, the commander with
its setpoint watchdog, and the §II-C scan task with the position
feedback that keeps the UAV stable while its radio is off.
"""

from . import app_protocol
from .battery import Battery, BatteryConfig
from .commander import Commander, CommanderState
from .crazyflie import Crazyflie, FlightState, UavConfig
from .decks import ESP_DECK, LOCO_DECK, MAX_DECKS, Deck, DeckSlots
from .dynamics import DynamicsConfig, FlightDynamics
from .firmware import FirmwareConfig

__all__ = [
    "app_protocol",
    "Battery",
    "BatteryConfig",
    "Commander",
    "CommanderState",
    "Crazyflie",
    "FlightState",
    "UavConfig",
    "Deck",
    "DeckSlots",
    "LOCO_DECK",
    "ESP_DECK",
    "MAX_DECKS",
    "DynamicsConfig",
    "FlightDynamics",
    "FirmwareConfig",
]
