"""Table I — typical log elements and their data types.

Regenerates the paper's element taxonomy by scanning a corpus covering
every row of Table I and reporting the type the scanner assigns.
"""

from repro.scanner import Scanner

SC = Scanner()

# (Table I element, example, paper data type)
ELEMENTS = [
    ("Date and Time stamps", "2021-09-14 08:12:33", "DateTime"),
    ("MAC addresses", "00:1B:44:11:3A:B7", "Hexadecimal"),
    ("IPv6 addresses", "fe80::1ff:fe23:4567:890a", "Hexadecimal"),
    ("Port numbers", "8080", "Integer"),
    ("Line numbers and counts", "148", "Integer"),
    ("Decimal numbers", "3.14159", "Float"),
    ("Duration", "00:01", "Text/Number"),
    ("Uids and machine identifiers", "blk_38865049064139660", "Text/Integer"),
    ("IPv4 addresses", "192.168.1.5", "Text"),
    ("Words, Brackets, and Quotes", "connection", "Text"),
    ("Punctuation and control characters", ";", "Text"),
    ("Email addresses", "ops@example.com", "Text"),
    ("URLs with/without query strings", "https://example.com/q?a=1", "Text"),
    ("Host names and Protocols", "node01.example.com", "Text"),
    ("Paths", "/var/log/messages", "Text"),
    ("Non-English characters", "café", "Text"),
    ("Full SQL request queries", "SELECT", "Text"),
    ("Key/value pairs in many formats", "user=root", "Text"),
]

_EXPECTED = {
    "Date and Time stamps": "time",
    "MAC addresses": "mac",
    "IPv6 addresses": "ipv6",
    "Port numbers": "integer",
    "Line numbers and counts": "integer",
    "Decimal numbers": "float",
    "Duration": "time",
    "IPv4 addresses": "ipv4",
    "URLs with/without query strings": "url",
}


def test_table1_element_types(table_writer):
    rows = []
    for element, example, paper_type in ELEMENTS:
        token = SC.scan(example).tokens[0]
        rows.append([element, example, paper_type, token.type.value])
        expected = _EXPECTED.get(element, "literal")
        assert token.type.value == expected, (element, token.type.value)
    table_writer(
        "table1_elements.md",
        ["Element", "Example", "Paper data type", "Scanner token type"],
        rows,
    )
